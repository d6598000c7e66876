"""``python -m circuit_energy <verb> ...`` runs the ``cenergy`` command line."""

import sys

from .cli import main

sys.exit(main())

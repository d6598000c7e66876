"""Whole-width reference for the positive-sensitivity tests.

``psens`` builds, for every variable i, the mask of the inputs with a_i = 1
whose partner a - 2^i has the other value, each by one shift of the whole
2^n-bit table, counts the n masks bit-sliced and takes the first input with
the largest count.  It returns the same ``PsensReport``, and raises the same
errors, as ``circuit_energy.psens``.
"""

from circuit_energy import PsensReport, psens_at
from circuit_energy.semantics import EVAL_CAP, _check_cap, count_planes, max_planes, var_masks


def psens(f, cap=None):
    """max over a of |{i : a_i = 1, f(a xor e_i) != f(a)}|, with a witness."""
    n = f.num_vars
    _check_cap(n, cap, EVAL_CAP)
    bits = f.bits
    # s_i: inputs with a_i = 1 whose partner a - 2^i has the other value
    sens = ((bits ^ (bits << (1 << i))) & x for i, x in enumerate(var_masks(n)))
    value, best = max_planes(count_planes(sens), (1 << (1 << n)) - 1)
    witness = tuple((best >> i) & 1 for i in range(n))
    return PsensReport(value, witness, psens_at(f, witness))

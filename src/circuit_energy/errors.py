"""Error taxonomy for the toolkit.

Every structural precondition gets its own exception class so callers (and the
CLI) can tell a malformed artifact from a failed mathematical check.  All of
them derive from ToolkitError.  A variable read by several INPUT gates is no
fault: a circuit, like a formula, may read it at several leaves.
"""


class ToolkitError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(ToolkitError):
    """A text artifact (netlist, decision tree, truth table) is malformed."""


class UnknownGateRef(ToolkitError):
    """A gate id / name does not exist in the circuit."""


class CycleOrForwardRef(ToolkitError):
    """A gate references itself or a gate defined after it."""


class ArityViolation(ToolkitError):
    """A gate's child count is illegal for its kind or the circuit's fan-in mode."""


class VarOutOfRange(ToolkitError):
    """A variable index is negative or >= numVars."""


class NotAFormula(ToolkitError):
    """The circuit is not tree-shaped (some non-output gate feeds 0 or >1 gates)."""


class LengthMismatch(ToolkitError):
    """A bit vector's length disagrees with the expected variable count."""


class CapExceeded(ToolkitError):
    """An exhaustive operation was asked to sweep more inputs than its cap allows."""


class IncompatibleArity(ToolkitError):
    """Two circuits (or a circuit and an operation) disagree on fan-in discipline."""


class NoPathFound(ToolkitError):
    """No positive path exists from the requested input under the given assignment."""


class NotMonotone(ToolkitError):
    """The function is not monotone but the operation requires it."""


class NotAOneInput(ToolkitError):
    """The provided assignment does not make the function output 1."""


class NoSensitiveIndexFound(ToolkitError):
    """The protocol could not locate a positively sensitive index."""


class RootNotAllowed(ToolkitError):
    """The operation needs a proper (non-root) gate of the formula."""


class NotReadOnce(ToolkitError):
    """Some variable occurs in more than one leaf of the formula."""


class NonLeafNegation(ToolkitError):
    """A NOT gate sits above a non-leaf subformula where only literals are allowed."""


class BudgetInfeasible(ToolkitError):
    """The requested random instance cannot fit the given budgets."""


class UnknownFixture(ToolkitError):
    """The fixture name does not match any known family."""

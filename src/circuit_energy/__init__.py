"""Energy complexity of AND/OR/NOT circuits: the number of gates that output
1 on an input, maximized over inputs, minimized over circuits.

The package builds the classic constructions (shared-negation minterm
cascades, truth-table compilers, decision-tree compilers, block
decompositions of formulas), computes exact desk-scale energies, and checks
every bound it claims against oracles; see ``verify`` and the ``cenergy``
command.
"""

from .errors import (
    ArityViolation,
    BudgetInfeasible,
    CapExceeded,
    CycleOrForwardRef,
    IncompatibleArity,
    LengthMismatch,
    NoPathFound,
    NoSensitiveIndexFound,
    NonLeafNegation,
    NotAFormula,
    NotAOneInput,
    NotMonotone,
    NotReadOnce,
    ParseError,
    RootNotAllowed,
    ToolkitError,
    UnknownFixture,
    UnknownGateRef,
    VarOutOfRange,
)
from .ir import (
    AND,
    CONST,
    FANIN2,
    INPUT,
    NOT,
    OR,
    UNBOUNDED,
    Circuit,
    DecisionTree,
    FaninMode,
    Formula,
    Gate,
    StructuralStats,
    and_gate,
    as_formula,
    bounded,
    const_gate,
    dt_depth_of,
    formula_from_tree,
    input_gate,
    not_gate,
    or_gate,
    parse_fanin_mode,
    restrict,
    structural_stats,
    substitute_leaf,
)
from .semantics import (
    EnergyMoments,
    EnergyReport,
    EvalTrace,
    Patterns,
    PsensReport,
    TruthTable,
    dt_depth,
    energy_exhaustive,
    energy_moments,
    equivalent,
    evaluate,
    firing_patterns,
    gate_masks,
    is_monotone,
    psens,
    psens_at,
    truth_table,
    var_masks,
)
from .textio import (
    parse_dtree,
    parse_netlist,
    parse_truth_table,
    serialize_dtree,
    serialize_netlist,
    serialize_truth_table,
)
from .synth import (
    DtCompileResult,
    MintermCascade,
    compile_truth_table,
    connector_merge,
    dt_to_circuit,
    fanin2_reduce,
    minterm_cascade,
)
from .bounds import (
    PositivePath,
    PsensCheck,
    TradeoffReport,
    check_psens_bound,
    dt_from_patterns,
    find_positive_path,
)
from .kw import KwInstance, KwTranscript, make_instance, minimize_one_input, run_protocol
from .formulas import (
    DecompositionResult,
    FormulaStats,
    NonSkewStats,
    ReadOnceReport,
    RestrictionReport,
    decompose_gk,
    formula_stats,
    nonskew_energy_estimate,
    readonce_leafneg_energy,
    restriction_energy_check,
)
from .corpus import GenSpec, SHAPES, fixture, generate, generate_nonskew

__version__ = "0.1.0"

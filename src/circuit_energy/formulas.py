"""Formula-level energy results: restriction stability, the block
decomposition that confines negations to a small skeleton, the read-once
leaf-negated exact value, and the mean-energy floor for skew-free formulas.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CapExceeded, NonLeafNegation, NotReadOnce, RootNotAllowed, ToolkitError
from .ir import (
    AND,
    INPUT,
    NOT,
    OP_KINDS,
    OR,
    Formula,
    Gate,
    UNBOUNDED,
    and_gate,
    const_formula,
    copy_subformula,
    fold,
    or_gate,
    replace_subformula,
    structural_stats,
)
from .semantics import EVAL_CAP, energy_exhaustive, energy_moments, evaluate, max_firing


# --------------------------------------------------------------------------
# restriction stability: EC(D|b) <= EC(D) + Depth(D)


@dataclass(slots=True)
class RestrictionReport:
    ec_restricted: int
    ec: int
    depth: int
    holds: bool
    restricted: Formula


def restriction_energy_check(
    formula: Formula, gate_id: int, bit: int, cap: int | None = None
) -> RestrictionReport:
    """Replace the subtree rooted at ``gate_id`` by the constant ``bit`` and
    compare energies.  The restricted formula can spend at most Depth(D) more
    than the original: forcing a subtree constant only re-routes firing along
    the single root path.
    """
    if gate_id == formula.output:
        raise RootNotAllowed("restricting at the output leaves no formula")
    restricted = replace_subformula(formula, gate_id, const_formula(bit))
    ec_r = energy_exhaustive(restricted, cap).ec
    ec = energy_exhaustive(formula, cap).ec
    depth = structural_stats(formula).depth
    return RestrictionReport(ec_r, ec, depth, ec_r <= ec + depth, restricted)


# --------------------------------------------------------------------------
# block decomposition


@dataclass(slots=True)
class DecompositionResult:
    f_prime: Formula
    blocks: tuple[tuple[int, int], ...]  # inclusive gate-id ranges, negation-free
    skeleton_gates: tuple[int, ...]  # gates of f_prime outside every block
    block_count: int


def decompose_gk(formula: Formula) -> DecompositionResult:
    """Equivalent formula built from negation-free blocks and a skeleton of
    at most 5*negs - 2 glue gates; each block occupies a contiguous gate-id
    range.  Leaves at most double.

    When all negations under a gate live strictly below it, the subformula F1
    at their lowest common ancestor is split out by expanding the (monotone)
    context F2 around it:  F = F2[z := F1] = F2|z=0  OR  (F2|z=1 AND F1).
    Both restrictions are negation-free, so they become blocks, and the
    decomposition continues inside F1, whose root is a NOT or has two
    negation-carrying children.  This is one ``fold`` over the gates: a
    negation-free gate is a leaf and becomes a block, a split gate's one
    child is its LCA (its two context blocks are built when it is expanded,
    before F1), and any other gate keeps its kind over its parts.
    """
    src = formula.gates
    negs = [0] * len(src)  # NOT gates in the subformula at each gate
    for gid, g in enumerate(src):
        negs[gid] = (g.kind == NOT) + sum(negs[c] for c in g.children)
    gates: list[Gate] = []
    blocks: list[tuple[int, int]] = []
    zero, one = const_formula(0), const_formula(1)
    contexts: dict[int, tuple[int, int]] = {}  # split gate -> its two blocks

    def block(root: int, swap_at: int = -1, swap_in: Formula | None = None) -> int:
        start = len(gates)
        out = copy_subformula(gates, src, root, swap_at, swap_in)
        blocks.append((start, out))
        return out

    def expand(a: int):
        if negs[a] == 0:
            return ()
        lca = a
        while src[lca].kind != NOT:
            negged = [c for c in src[lca].children if negs[c]]
            if len(negged) != 1:
                break
            lca = negged[0]
        if lca == a:
            return src[a].children
        contexts[a] = block(a, lca, zero), block(a, lca, one)
        return (lca,)

    def join(a: int, parts: list[int]) -> int:
        if not parts:
            return block(a)
        if a in contexts:
            ctx0, ctx1 = contexts[a]
            gates.append(and_gate(ctx1, parts[0]))
            gates.append(or_gate(ctx0, len(gates) - 1))
        else:
            gates.append(Gate(src[a].kind, tuple(parts)))
        return len(gates) - 1

    out = fold(formula.output, expand, join)
    f_prime = Formula(formula.num_vars, gates, out, UNBOUNDED, validate=False)
    in_block = set()
    for start, end in blocks:
        in_block.update(range(start, end + 1))
    skeleton = tuple(g for g in range(len(gates)) if g not in in_block)
    return DecompositionResult(f_prime, tuple(blocks), skeleton, len(blocks))


# --------------------------------------------------------------------------
# read-once formulas with negations only at the leaves


@dataclass(slots=True)
class ReadOnceReport:
    ec: int  # counting binary gates only; leaf NOTs are literal markers
    leaf_count: int
    equal: bool  # ec == leaf_count - 1
    witness_input: tuple


def readonce_leafneg_energy(formula: Formula, cap: int | None = None) -> ReadOnceReport:
    """Exact energy of a read-once formula whose negations sit directly on
    input leaves.  Negated leaves are literals, not gates, so only AND/OR
    firings count; the value always lands on leafCount - 1.
    """
    seen: set[int] = set()
    for g in formula.gates:
        if g.kind == INPUT:
            if g.arg in seen:
                raise NotReadOnce(f"x{g.arg} appears more than once")
            seen.add(g.arg)
        elif g.kind == NOT:
            if formula.gates[g.children[0]].kind != INPUT:
                raise NonLeafNegation("negation above a non-leaf subformula")
    binary = [g.kind != NOT for g in formula.gates if g.kind in OP_KINDS]
    peak, witness = max_firing(formula, cap, binary)
    leaves = formula.leaves()
    return ReadOnceReport(peak, leaves, peak == leaves - 1, witness)


# --------------------------------------------------------------------------
# skew-free mean energy

#: most inputs ``nonskew_energy_estimate`` draws, checked before numpy
#: allocates them: each costs `fml-nonskew` about 65 bytes of peak memory
SAMPLE_CAP = 1 << 20


@dataclass(slots=True)
class NonSkewStats:
    t: int  # gates whose children are all leaves
    sample_count: int
    empirical_mean_energy: float
    lower_envelope: float  # t / 4
    exact_mean: float | None  # None above EVAL_CAP variables
    exact_energy_total: int | None
    exact_square_total: int | None  # sum of the squared energy over all inputs


def nonskew_energy_estimate(
    formula: Formula, samples: int = 1000, seed: int = 0
) -> NonSkewStats:
    """Monte-Carlo mean energy under uniform inputs, against the t/4 floor:
    every binary gate reading two leaves fires with probability >= 1/4, so
    the mean energy of a skew-free formula is at least t/4 where t counts
    its bottom gates.  Up to EVAL_CAP variables the samples, the exact mean
    and the exact sum of squares all come from one blocked sweep; above it
    each sample is evaluated on its own and no exact value is given.
    """
    if samples < 1:
        raise ToolkitError(f"samples must be >= 1, got {samples}")
    if samples > SAMPLE_CAP:
        raise CapExceeded(f"samples={samples} exceeds the sample cap {SAMPLE_CAP}")
    if seed < 0:
        raise ToolkitError(f"seed must be >= 0, got {seed}")
    n = formula.num_vars
    if n > 64:
        raise CapExceeded(f"n={n}: sampled inputs are drawn as 64-bit indices")
    t = sum(
        1
        for g in formula.gates
        if g.kind in (AND, OR)
        and g.children
        and all(formula.gates[c].kind == INPUT for c in g.children)
    )
    import numpy as np

    rng = np.random.default_rng(seed)
    idx = rng.integers(0, 1 << n, size=samples, dtype=np.uint64)
    if n <= EVAL_CAP:
        m = energy_moments(formula, idx)
        return NonSkewStats(
            t, samples, float(m.drawn.mean()), t / 4,
            m.total / (1 << n), m.total, m.square_total,
        )
    drawn = np.array(
        [evaluate(formula, tuple((int(j) >> i) & 1 for i in range(n))).energy for j in idx],
        dtype=np.uint32,
    )
    return NonSkewStats(t, samples, float(drawn.mean()), t / 4, None, None, None)


# --------------------------------------------------------------------------
# convenience: headline numbers for one formula


@dataclass(slots=True)
class FormulaStats:
    leaves: int
    size: int
    depth: int
    negs: int
    ec: int
    argmax_input: tuple


def formula_stats(formula: Formula, cap: int | None = None) -> FormulaStats:
    s = structural_stats(formula)
    rep = energy_exhaustive(formula, cap)
    return FormulaStats(
        formula.leaves(), s.size, s.depth, s.negs, rep.ec, rep.argmax_input
    )


__all__ = [
    "RestrictionReport",
    "restriction_energy_check",
    "DecompositionResult",
    "decompose_gk",
    "ReadOnceReport",
    "readonce_leafneg_energy",
    "NonSkewStats",
    "nonskew_energy_estimate",
    "FormulaStats",
    "formula_stats",
]

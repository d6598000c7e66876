"""Lower-bound machinery with explicit witnesses: continuous positive paths,
the positive-sensitivity energy bound, and the firing-pattern decision-tree
extraction with its size/energy tradeoff report.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NoPathFound
from .ir import INPUT, NOT, OP_KINDS, Circuit, DecisionTree, dt_depth_of, restrict
from .semantics import (
    DT_CAP,
    EVAL_CAP,
    _check_cap,
    dt_depth,
    energy_exhaustive,
    evaluate,
    firing_patterns,
    gate_masks,
    psens,
    truth_table,
)


# --------------------------------------------------------------------------
# continuous positive paths


@dataclass(slots=True)
class PositivePath:
    gate_ids: tuple[int, ...]  # INPUT gate first, then child-to-parent upward
    terminal: str  # "ROOT" | "FEEDS_NOT"
    not_gate_id: int | None  # set iff terminal == "FEEDS_NOT"
    input: tuple
    var_index: int


def find_positive_path(circuit: Circuit, a, i: int, cap: int | None = None) -> PositivePath:
    """A chain of gates all firing under ``a`` from the INPUT gate of x_i up
    to the output or to a gate feeding a NOT, breadth-first, preferring lower
    gate ids.  Requires a_i = 1 and i positively sensitive at ``a`` (oracle
    checked); a failed search on such an input is a theorem violation.
    """
    _check_cap(circuit.num_vars, cap, EVAL_CAP)
    a = tuple(int(b) for b in a)
    trace = evaluate(circuit, a)
    if not (0 <= i < len(a) and a[i]) or (
        evaluate(circuit, a[:i] + (0,) + a[i + 1 :]).value == trace.value
    ):
        raise NoPathFound(
            f"x{i} is not positively sensitive at {''.join(map(str, a))}"
        )
    start = circuit.input_gate_ids().get(i)
    if start is None:
        raise NoPathFound(f"no INPUT gate for x{i}")  # unreachable if sensitive
    vals = trace.gate_values
    consumers = circuit.consumers()
    parent: dict[int, int] = {start: -1}
    queue = [start]
    while queue:
        nxt: list[int] = []
        for g in queue:
            feeds_not = [c for c in consumers[g] if circuit.gates[c].kind == NOT]
            if g == circuit.output or feeds_not:
                path = []
                cur = g
                while cur != -1:
                    path.append(cur)
                    cur = parent[cur]
                path.reverse()
                if g == circuit.output and not feeds_not:
                    return PositivePath(tuple(path), "ROOT", None, a, i)
                if feeds_not:
                    return PositivePath(tuple(path), "FEEDS_NOT", min(feeds_not), a, i)
            for c in sorted(consumers[g]):
                if c not in parent and vals[c] == 1:
                    parent[c] = g
                    nxt.append(c)
        queue = sorted(set(nxt))
    raise NoPathFound(
        f"no all-firing path from x{i} under {''.join(map(str, a))}"
    )


# --------------------------------------------------------------------------
# psens bound


@dataclass(slots=True)
class PsensCheck:
    ec: int
    psens: int
    fanin_bound: int  # the c in EC >= psens/(c+1)
    holds: bool
    witness_input: tuple  # psens witness
    witness_indices: set


def check_psens_bound(circuit: Circuit, cap: int | None = None) -> PsensCheck:
    """EC(C) >= psens(f)/(c+1), with c = 2 for FANIN2 circuits (the /3 bound).

    An UNBOUNDED circuit is treated as BOUNDED(actual max fan-in): the fan-in
    parameterized inequality is valid for any finite c, so that is the honest
    generalization.
    """
    report = energy_exhaustive(circuit, cap)
    sens = psens(truth_table(circuit, cap), cap)
    c = circuit.fanin_parameter()
    holds = (c + 1) * report.ec >= sens.value
    return PsensCheck(
        report.ec, sens.value, c, holds, sens.witness_input, sens.witness_indices
    )


# --------------------------------------------------------------------------
# firing patterns -> decision tree


@dataclass(slots=True)
class TradeoffReport:
    size: int
    energy: int
    pattern_count: int
    max_fanin: int
    extracted_tree: DecisionTree
    dt_oracle: int | None  # exact DT(f) when the oracle cap allows


def dt_from_patterns(circuit: Circuit, cap: int | None = None) -> TradeoffReport:
    """Extract a decision tree of depth <= maxFanin * patternCount from the
    circuit, by repeatedly querying all variable children of the first
    not-yet-constant gate whose other children are settled.

    Constants here are gates whose value agrees across the surviving firing
    patterns, i.e. across all inputs of the current restriction; querying a
    gate's variables makes it constant, so every round settles at least one
    gate and kills at least one pattern.
    """
    n = circuit.num_vars
    stats_size = sum(1 for g in circuit.gates if g.kind in OP_KINDS)
    # firing_patterns prices its whole-width masks, so an oversized circuit
    # is refused before the energy sweep runs
    t = len(firing_patterns(circuit, cap))
    energy = energy_exhaustive(circuit, cap).ec
    ell = max(1, circuit.max_fanin())

    def extract(c: Circuit):
        masks = gate_masks(c, cap)
        full = (1 << (1 << n)) - 1
        out = masks[c.output]
        if out == 0:
            return 0
        if out == full:
            return 1

        def settled(gid: int) -> bool:
            return masks[gid] in (0, full)

        pick = None
        for gid, g in enumerate(c.gates):
            if g.kind in OP_KINDS and not settled(gid):
                if all(
                    c.gates[ch].kind == INPUT or settled(ch) for ch in g.children
                ):
                    pick = g
                    break
        if pick is None:
            # the output must hang off a live INPUT gate directly
            qvars = [c.gates[c.output].arg]
        else:
            qvars = sorted(
                {
                    c.gates[ch].arg
                    for ch in pick.children
                    if c.gates[ch].kind == INPUT and not settled(ch)
                }
            )

        def subtree(idx: int, assignment: dict[int, int]):
            if idx == len(qvars):
                return extract(restrict(c, assignment))
            v = qvars[idx]
            return (
                v,
                subtree(idx + 1, {**assignment, v: 0}),
                subtree(idx + 1, {**assignment, v: 1}),
            )

        return subtree(0, {})

    root = extract(circuit)
    tree = DecisionTree(n, root)
    oracle = None
    if n <= DT_CAP:
        oracle = dt_depth(truth_table(circuit, cap)).depth
    return TradeoffReport(
        stats_size, energy, t, ell, tree, oracle
    )


def tradeoff_depth_ok(report: TradeoffReport) -> bool:
    return dt_depth_of(report.extracted_tree.root) <= report.max_fanin * report.pattern_count

"""Lower-bound machinery with explicit witnesses: continuous positive paths,
the positive-sensitivity energy bound, and the firing-pattern decision-tree
extraction with its size/energy tradeoff report.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import and_, or_

from .errors import NoPathFound
from .ir import AND, INPUT, NOT, OP_KINDS, OR, Circuit, DecisionTree, dt_depth_of, forced
from .semantics import (
    DT_CAP,
    EVAL_CAP,
    _as_input,
    _check_cap,
    dt_depth,
    energy_exhaustive,
    firing_patterns,
    gate_masks,
    psens,
    truth_table,
    var_masks,
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
    """The chain of gates firing under ``a`` from the first INPUT gate of x_i
    that reaches a terminal, the output or a gate feeding a NOT (naming the
    lowest such NOT), that a breadth-first search taking each level in id
    order finds.  Needs a_i = 1 and x_i positively sensitive at ``a``; a
    failure there breaks the theorem.  One walk in id order: bits 0 and 1 of
    a gate's int are its values at ``a`` and at ``a`` with x_i cleared (AND
    ``&``, OR ``|``, NOT ``3 ^ v``).  The r-th INPUT gate of x_i is at level 0
    of rank r; a gate other than a NOT that fires at ``a`` is one level above
    its parent, its reached child of least (rank, level, id), in that rank;
    the terminal is the reached output or NOT feeder of least (rank, level,
    id).  A key (r * G + level) * G + id (G gates) orders both.
    """
    _check_cap(circuit.num_vars, cap, EVAL_CAP)
    a = _as_input(circuit, a)
    x = [3 * b for b in a]  # each variable at both points
    if 0 <= i < len(a):  # else, or at a_i = 0, the output check below refuses
        x[i] = a[i]
    gates, size = circuit.gates, len(circuit.gates)
    end = far = size**3  # far: above every key, not reached; end: the terminal's key
    vals, keys, rank, nid = [], [], 0, None  # nid: the lowest NOT the terminal feeds
    val = vals.__getitem__
    for gid, (kind, ch, arg) in enumerate(gates):
        k = far  # least key of a reached child, once the gate fires
        if kind == AND:  # fan-in 2 first, as most gates have it
            v = vals[ch[0]] & vals[ch[1]] if len(ch) == 2 else reduce(and_, map(val, ch))
        elif kind == OR:
            v = vals[ch[0]] | vals[ch[1]] if len(ch) == 2 else reduce(or_, map(val, ch))
        elif kind == NOT:
            v = 3 ^ vals[ch[0]]
            if keys[ch[0]] < end:
                end, nid = keys[ch[0]], gid
            ch = ()  # a chain ends below a NOT
        else:
            v = x[arg] if kind == INPUT else 3 * arg
            if v == 1:  # an INPUT gate of x_i, at level 0 of the next rank
                k, rank = (rank * size - 1) * size, rank + 1
        vals.append(v)
        if v & 1:
            for c in ch:
                if keys[c] < k:
                    k = keys[c]
        keys.append((k // size + 1) * size + gid if k < far else far)
    if vals[circuit.output] in (0, 3):  # the same output at both points
        raise NoPathFound(f"x{i} is not positively sensitive at {''.join(map(str, a))}")
    if keys[circuit.output] < end:
        end, nid = keys[circuit.output], None
    if end == far:
        raise NoPathFound(f"no all-firing path from x{i} under {''.join(map(str, a))}")
    path = [end % size]
    while end // size % size:  # above level 0: down to the parent
        end = min(map(keys.__getitem__, gates[end % size].children))
        path.append(end % size)
    return PositivePath(tuple(reversed(path)), "ROOT" if nid is None else "FEEDS_NOT", nid, a, i)


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

    The circuit is swept once: a node of the tree reads each gate's mask
    ANDed with ``alive``, the inputs that agree with its assignment.  Below
    the root, the pick reads only the output cone that ``forced`` leaves
    under the assignment, which stops at the gates it forces; at the root
    every gate counts, dead ones too.
    """
    n = circuit.num_vars
    gates, out = circuit.gates, circuit.output
    ops = [gid for gid, g in enumerate(gates) if g.kind in OP_KINDS]
    # firing_patterns prices its whole-width masks, so an oversized circuit
    # is refused before the energy sweep runs
    t = len(firing_patterns(circuit, cap))
    energy = energy_exhaustive(circuit, cap).ec
    ell = max(1, circuit.max_fanin())
    masks = gate_masks(circuit, cap)
    columns = var_masks(n)

    def extract(assignment: dict[int, int], alive: int):
        value = masks[out] & alive
        if value == 0:
            return 0
        if value == alive:
            return 1

        def settled(gid: int) -> bool:
            m = masks[gid] & alive
            return m == 0 or m == alive

        live = forced(circuit, assignment)[1] if assignment else [True] * len(gates)
        pick = None
        for gid in ops:
            if live[gid] and not settled(gid):
                g = gates[gid]
                if all(gates[ch].kind == INPUT or settled(ch) for ch in g.children):
                    pick = g
                    break
        if pick is None:
            # the output must hang off a live INPUT gate directly
            qvars = [gates[out].arg]
        else:
            qvars = sorted(
                {
                    gates[ch].arg
                    for ch in pick.children
                    if gates[ch].kind == INPUT and not settled(ch)
                }
            )

        def subtree(idx: int, assignment: dict[int, int], alive: int):
            if idx == len(qvars):
                return extract(assignment, alive)
            v = qvars[idx]
            return (
                v,
                subtree(idx + 1, {**assignment, v: 0}, alive & ~columns[v]),
                subtree(idx + 1, {**assignment, v: 1}, alive & columns[v]),
            )

        return subtree(0, assignment, alive)

    root = extract({}, (1 << (1 << n)) - 1)
    tree = DecisionTree(n, root)
    oracle = None
    if n <= DT_CAP:
        oracle = dt_depth(truth_table(circuit, cap)).depth
    return TradeoffReport(
        len(ops), energy, t, ell, tree, oracle
    )


def tradeoff_depth_ok(report: TradeoffReport) -> bool:
    return dt_depth_of(report.extracted_tree.root) <= report.max_fanin * report.pattern_count

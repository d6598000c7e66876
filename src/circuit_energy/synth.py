"""Circuit constructions: the minterm cascade, the truth-table compiler, the
negation-sharing connector merge, the decision-tree-to-circuit compiler, and
the fan-in-2 reduction.

The merge and the tree compiler build into one flat ``_Table`` of gate rows.
Negation elimination rewires rows in place (a selector takes over one NOT's
row and the other NOT forwards to it), and ``_Table.lay_out`` emits the
finished output cone as a dense topologically ordered Circuit.  It walks an
explicit stack in the order of a recursive depth-first walk, so a deep cone
lays out in the same gate order and meets no recursion limit.
"""

from __future__ import annotations

from functools import lru_cache
from operator import itemgetter
from typing import NamedTuple

from .errors import CapExceeded, IncompatibleArity, VarOutOfRange
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
    Gate,
    and_gate,
    bounded,
    const_gate,
    fold,
    input_gate,
    not_gate,
    or_gate,
    restrict,
)

SYNTH_CAP = 24
GATE_BUDGET = 1 << 20  # gates a construction may build; priced before building


def check_gate_budget(what: str, gates: int) -> None:
    """Refuse a construction whose predicted gate count is over GATE_BUDGET."""
    if gates > GATE_BUDGET:
        raise CapExceeded(
            f"{what} would build at least {gates} gates, over the {GATE_BUDGET} budget"
        )


# --------------------------------------------------------------------------
# build table


class _Table:
    """Gates under construction: row i is ``[kind, children, arg]`` and rows
    0..n-1 are the inputs.  A row can be rewired after the rows that consume
    it were added, so only ``lay_out`` puts the rows in topological order."""

    def __init__(self, n: int) -> None:
        self.n = n
        self.rows: list[list] = [[INPUT, [], v] for v in range(n)]
        # NOT row paired away by merge_nots -> the row its selector took over
        self.same: dict[int, int] = {}

    def add(self, kind: str, children=(), arg: int = 0) -> int:
        self.rows.append([kind, list(children), arg])
        return len(self.rows) - 1

    def find(self, r: int) -> int:
        while r in self.same:
            r = self.same[r]
        return r

    def merge_nots(self, nots0, nots1, xi: int, not_xi: int) -> list[int]:
        """Pair the NOT rows of two sides in list order, min(len) pairs.

        Each pair (t0, t1) becomes one shared selector
        NOT(OR(AND(~xi, f0), AND(xi, f1))), where f0/f1 are the two feeders.
        On any input at most 2 of the 4 selector gates fire, and each pair
        removes one negation net.  The selector takes over t0's row and t1
        forwards to it.  Returns the selector AND rows.

        Each list must put every NOT after the NOTs in its input cone (gate
        order, or creation order in the tree compiler); pairing in any other
        order can close a cycle.
        """
        rows = self.rows
        ands: list[int] = []
        for t0, t1 in zip(nots0, nots1):
            a0 = self.add(AND, (not_xi, rows[t0][1][0]))
            a1 = self.add(AND, (xi, rows[t1][1][0]))
            rows[t0][1] = [self.add(OR, (a0, a1))]
            self.same[t1] = t0
            ands += (a0, a1)
        return ands

    def lay_out(self, root: int, fanin_mode: FaninMode) -> Circuit:
        """The output cone of ``root`` as a dense Circuit, children first.

        A depth-first walk on an explicit stack, in the order of a recursive
        walk: a row is laid out the first time it is reached, after its
        children in list order.  An entry ``~r`` lays row r out once the
        children above it on the stack are done.  A forwarded row (``same``)
        takes the id of the row it forwards to, once that one is laid out.
        """
        rows, same = self.rows, self.same
        new = tuple.__new__  # Gate's own constructor is a Python call
        gates: list[Gate] = []
        emit = gates.append
        gid = [-1] * len(rows)
        stack = [root]
        pop, push = stack.pop, stack.append
        while stack:
            r = pop()
            if r < 0:
                kind, kids, arg = rows[~r]
                gid[~r] = len(gates)
                emit(new(Gate, (kind, tuple(map(gid.__getitem__, kids)), arg)))
            elif gid[r] < 0:
                if r in same:
                    t = same[r]
                    if gid[t] < 0:  # come back to r once t is laid out
                        push(r)
                        push(t)
                    else:
                        gid[r] = gid[t]
                    continue
                kind, kids, arg = rows[r]
                if kids:
                    push(~r)
                    for c in reversed(kids):
                        if gid[c] < 0:
                            push(c)
                else:
                    gid[r] = len(gates)
                    emit(new(Gate, (kind, (), arg)))
        return Circuit(self.n, gates, gid[root], fanin_mode, validate=False)


# --------------------------------------------------------------------------
# minterm cascade


class MintermCascade(NamedTuple):
    circuit: Circuit  # multi-tap: all taps are live gates, output = top tap
    n: int
    taps: tuple[int, ...]  # gate id of the minterm for input j, little-endian


@lru_cache(maxsize=32)
def _cascade(n: int) -> tuple[tuple[Gate, ...], tuple[int, ...]]:
    gates: list[Gate] = [input_gate(v) for v in range(n)]
    gates.append(not_gate(0))
    taps = [n, 0]  # [not x0, x0]
    for k in range(1, n):
        notk = len(gates)
        gates.append(not_gate(k))
        new_taps = [0] * (2 << k)
        for b in (0, 1):
            sel = k if b else notk
            for j, t in enumerate(taps):
                new_taps[j + (b << k)] = len(gates)
                gates.append(and_gate(t, sel))
        taps = new_taps
    return tuple(gates), tuple(taps)


def minterm_cascade(n: int, cap: int | None = None) -> MintermCascade:
    """The shared-negation minterm generator: 2^n AND-chain taps, tap j firing
    exactly on input j; one NOT per variable, whole-circuit energy <= 2n-1."""
    if n < 1:
        raise CapExceeded(f"cascade needs n >= 1, got {n}")
    limit = SYNTH_CAP if cap is None else cap
    if n > limit:
        raise CapExceeded(f"n={n} exceeds the construction cap {limit}")
    check_gate_budget(f"the n={n} cascade", 2 * n + (2 << n) - 4)
    # only the gates are cached: each call gets its own circuit, so the masks
    # that sweeps keep on it (Circuit.swept) are not kept by the cache
    gates, taps = _cascade(n)
    return MintermCascade(Circuit(n, gates, taps[-1], FANIN2, validate=False), n, taps)


# --------------------------------------------------------------------------
# truth-table compiler

COMPILE_CAP = 12  # the circuit has 2^O(n) gates; keep it desk-scale


def compile_truth_table(f, cap: int | None = None) -> Circuit:
    """Compile any function into the cascade + balanced OR2 tree circuit.

    Leaf j of the OR tree is cascade tap j when f(j)=1 and a shared CONST 0
    otherwise, so on input v at most the cascade (<= 2n-1) plus the n ORs
    above tap v fire: EC <= 3n-1.
    """
    n = f.num_vars
    limit = COMPILE_CAP if cap is None else cap
    if n > limit:
        raise CapExceeded(f"n={n} exceeds the compile cap {limit}")
    if n == 0:
        return Circuit(0, [const_gate(f.bits & 1)], 0, FANIN2, validate=False)
    casc = minterm_cascade(n, cap)
    gates = list(casc.circuit.gates)
    const0 = None
    level: list[int] = []
    for j in range(1 << n):
        if f.value(j):
            level.append(casc.taps[j])
        else:
            if const0 is None:
                const0 = len(gates)
                gates.append(const_gate(0))
            level.append(const0)
    while len(level) > 1:
        nxt = []
        for i in range(0, len(level), 2):
            nxt.append(len(gates))
            gates.append(or_gate(level[i], level[i + 1]))
        level = nxt
    return Circuit(n, gates, level[0], FANIN2, validate=False)


# --------------------------------------------------------------------------
# connector merge


def connector_merge(c0: Circuit, c1: Circuit, i: int) -> Circuit:
    """Merge two circuits into one computing (~x_i AND c0) OR (x_i AND c1)
    with negs = 1 + max(negs(c0), negs(c1)).

    Sides are pruned to their output cones first (dead negations would make
    the count meaningless).  min(negs0, negs1) selector steps, pairing the
    NOTs of both sides in gate order, each eliminate one NOT from each side in
    favour of one shared selector negation.
    """
    if c0.num_vars != c1.num_vars:
        raise IncompatibleArity(
            f"sides disagree on the variable set ({c0.num_vars} vs {c1.num_vars})"
        )
    if c0.fanin_mode.limit() is None or c1.fanin_mode.limit() is None:
        raise IncompatibleArity("connector merge wants fan-in bounded sides")
    n = c0.num_vars
    if not 0 <= i < n:
        raise VarOutOfRange(f"x{i} out of range for n={n}")
    tab = _Table(n)
    roots: list[int] = []
    nots: list[list[int]] = []
    for c in (restrict(c0, {}), restrict(c1, {})):
        row: list[int] = []
        for g in c.gates:
            if g.kind == INPUT:
                row.append(g.arg)
            else:
                row.append(tab.add(g.kind, [row[ch] for ch in g.children], g.arg))
        roots.append(row[c.output])
        nots.append([r for r, g in zip(row, c.gates) if g.kind == NOT])
    not_xi = tab.add(NOT, [i])
    tab.merge_nots(nots[0], nots[1], i, not_xi)
    top = tab.add(OR, [tab.add(AND, [not_xi, roots[0]]), tab.add(AND, [i, roots[1]])])
    if c0.fanin_mode == FANIN2 and c1.fanin_mode == FANIN2:
        mode = FANIN2
    else:
        mode = bounded(max(c0.fanin_mode.limit(), c1.fanin_mode.limit(), 2))
    return tab.lay_out(top, mode)


# --------------------------------------------------------------------------
# decision tree -> circuit


def _compiled_branches(t) -> tuple:
    """The branches ``dt_to_circuit`` compiles a node from: none for a leaf
    or a node whose branches are both leaves, else (low, high)."""
    if isinstance(t, int) or isinstance(t[1], int) and isinstance(t[2], int):
        return ()
    return t[1:]


class DtCompileResult(NamedTuple):
    circuit: Circuit  # UNBOUNDED mode; every AND ends with its guard literals
    tree_depth: int


def dt_to_circuit(tree: DecisionTree) -> DtCompileResult:
    """Compile a reduced decision tree into a circuit with OR fan-in 2,
    AND fan-in <= depth+2, no OR fed by a literal, negs <= depth, and
    EC <= 2*depth^2.

    One ``fold`` over the tree, bottom-up: a depth-d node on x_v becomes
    OR(L0, L1).  A constant-0 branch feeds the OR as CONST 0; a constant-1
    or literal branch is wrapped as (branch AND guard); a deeper branch
    contributes its own OR top directly after (a) selector steps that pair
    up and eliminate negations across the two branches and (b) injection of
    the branch literal into every AND the branch brought along (this level's
    selector ANDs already carry x_v).  A node whose branches are both leaves
    is a leaf of the fold.  The same fold measures the tree's depth.

    Guard-tail invariant: wrapping and injection both append the guard, so
    the children of every AND end with its guard literals, innermost level
    first.  A guard slot may hold a selector once negation elimination has
    consumed the literal there.
    """
    tab = _Table(tree.num_vars)
    rows, add = tab.rows, tab.add

    def join(t, built) -> tuple[int, list[int], list[int], int]:
        """(root row, live NOT rows in pairing order, AND rows, depth) of
        subtree t."""
        if not built:
            if isinstance(t, int):
                return add(CONST, arg=t), [], [], 0
            var, lo, hi = t
            if lo == hi:
                return add(CONST, arg=lo), [], [], 1
            if (lo, hi) == (0, 1):
                return var, [], [], 1
            r = add(NOT, [var])
            return r, [r], [], 1
        var = t[0]
        (r0, nots0, ands0, d0), (r1, nots1, ands1, d1) = built
        not_x = add(NOT, [var])
        sel_ands = tab.merge_nots(nots0, nots1, var, not_x)
        legs: list[int] = []
        for r, ands, guard in ((r0, ands0, not_x), (tab.find(r1), ands1, var)):
            kind, _, arg = rows[r]
            if kind == OR:
                for a in ands:
                    rows[a][1].append(guard)
            elif kind != CONST or arg:  # literal, selector or CONST 1
                r = add(AND, [r, guard])
                ands.append(r)
            legs.append(r)
        # ~x_v is live once a selector or an AND on the low side holds it
        nots = [not_x] if sel_ands or ands0 else []
        nots += nots0
        nots += nots1[len(sel_ands) // 2 :]
        return add(OR, legs), nots, ands0 + ands1 + sel_ands, 1 + max(d0, d1)

    root, _, _, depth = fold(tree.root, _compiled_branches, join)
    return DtCompileResult(tab.lay_out(root, UNBOUNDED), depth)


# --------------------------------------------------------------------------
# fan-in-2 reduction


def fanin2_reduce(result: DtCompileResult) -> Circuit:
    """Expand every wide gate of a compiled tree into a right-comb of fan-in-2
    gates over its children in order.  By the guard-tail invariant of
    ``dt_to_circuit`` the guard literals of an AND come last, so they sit
    deepest (the outermost level's literal at the very bottom) and a false
    guard zeroes the entire comb.  The output is an equivalent FANIN2 circuit
    with EC <= 2*d^2*(d+1).  Its gate count, the source's plus len - 2 per
    wide gate, is priced against GATE_BUDGET before any gate is built."""
    src = result.circuit
    # a gate of fan-in k > 2 adds k - 2 gates: the sum of k - 2 over every
    # gate, less the -2 and -1 that fan-ins 0 and 1 put in it
    fanins = list(map(len, map(itemgetter(1), src.gates)))
    extra = sum(fanins) - 2 * len(fanins) + 2 * fanins.count(0) + fanins.count(1)
    check_gate_budget("the fan-in-2 expansion", len(fanins) + extra)
    new = tuple.__new__  # Gate's own constructor is a Python call
    gates: list[Gate] = []
    emit = gates.append
    idmap: list[int] = []
    for kind, kids, arg in src.gates:
        kids = tuple(map(idmap.__getitem__, kids))
        if len(kids) > 2:
            acc = len(gates)
            emit(new(Gate, (kind, kids[-2:], 0)))
            for c in reversed(kids[:-2]):
                emit(new(Gate, (kind, (c, acc), 0)))
                acc += 1
            idmap.append(acc)
        else:
            idmap.append(len(gates))
            emit(new(Gate, (kind, kids, arg)))
    return Circuit(src.num_vars, gates, idmap[src.output], FANIN2, validate=False)

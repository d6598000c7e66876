import hashlib
import random
import tracemalloc
from bisect import bisect_left
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from circuit_energy import (
    CapExceeded,
    LengthMismatch,
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
from circuit_energy import semantics
from circuit_energy.corpus import CIRCUIT, MONOTONE, GenSpec, fixture, generate
from circuit_energy.formulas import readonce_leafneg_energy
from circuit_energy.ir import AND, CONST, INPUT, NOT, OP_KINDS, OR, Circuit, Gate
from circuit_energy.semantics import BLOCK_VARS, count_planes, max_firing
from circuit_energy.synth import dt_to_circuit, minterm_cascade
from circuit_energy.textio import parse_netlist
from psens_ref import psens as psens_ref
from sweep_ref import energies, gate_lanes, lanes

XOR2 = TruthTable(2, 0b0110)


def test_var_masks_small():
    assert var_masks(2) == (0b1010, 0b1100)


@pytest.mark.parametrize("n", [0, 1, 3, 7, 12])
def test_var_masks_match_input_bits(n):
    for i, m in enumerate(var_masks(n)):
        assert m == sum(1 << j for j in range(1 << n) if (j >> i) & 1)


# --------------------------------------------------------------------------
# every exhaustive sweep against evaluate() on every input


def _circuit(n, size, shape=CIRCUIT, seed=0):
    return generate(GenSpec(seed=seed, num_vars=n, size_budget=size, neg_density=0.3,
                            shape=shape))


SWEEP_CASES = {
    "n0-const": parse_netlist("g0 = CONST 1\ng1 = NOT g0\ng2 = AND g0 g1\nOUTPUT g2\n"),
    "n1": _circuit(1, 5),
    "n4": _circuit(4, 30, seed=1),
    "n5-monotone": _circuit(5, 40, MONOTONE, seed=2),
    "no-op-gates": parse_netlist("INPUT x0\nINPUT x1\nINPUT x2\nOUTPUT x1\n"),
    "n6-300-gates": _circuit(6, 300, seed=3),
    "n8-300-gates": _circuit(8, 300, MONOTONE, seed=4),
    "n10": _circuit(10, 60, seed=5),
    "n12-1824-patterns": _circuit(12, 80, seed=9),
    "n17": _circuit(17, 6, seed=6),
}


def _fresh(c):
    """A never-swept copy of ``c``: the same gates without its masks."""
    return Circuit(c.num_vars, c.gates, c.output, c.fanin_mode, validate=False)


@pytest.mark.parametrize("name", list(SWEEP_CASES))
def test_sweeps_match_evaluate_on_every_input(name):
    # evaluate interprets the never-swept copy gate by gate, and gate_masks
    # is held to a numpy evaluation, so neither side reads the other's masks
    c = SWEEP_CASES[name]
    n = c.num_vars
    fresh = _fresh(c)
    traces = [evaluate(fresh, tuple((j >> i) & 1 for i in range(n))) for j in range(1 << n)]
    assert fresh.swept is None
    ref = gate_lanes(c)
    assert all((lanes(m, n) == v).all() for m, v in zip(gate_masks(c), ref))
    assert all([t.gate_values[g] for t in traces] == v.tolist() for g, v in enumerate(ref))
    es = [t.energy for t in traces]

    rep = energy_exhaustive(c)
    assert rep.ec == max(es)
    assert rep.argmax_input == traces[es.index(rep.ec)].input
    assert energies(c).tolist() == es
    m = energy_moments(c, range(1 << n))
    assert m.drawn.tolist() == es
    assert (m.total, m.square_total) == (sum(es), sum(e * e for e in es))

    vals = [t.value for t in traces]
    f = truth_table(c)
    assert f == TruthTable.from_values(n, vals)
    sens = [{i for i in range(n) if (j >> i) & 1 and vals[j] != vals[j ^ (1 << i)]}
            for j in range(1 << n)]
    counts = [len(s) for s in sens]
    p = psens(f)
    assert p.value == max(counts)
    j = counts.index(p.value)
    assert p.witness_input == traces[j].input
    assert p.witness_indices == sens[j] == psens_at(f, p.witness_input)

    rows = {tuple(v for g, v in zip(c.gates, t.gate_values) if g.kind != INPUT)
            for t in traces}
    pats, want = firing_patterns(c), sorted(rows)
    assert pats == want and list(pats) == want and len(pats) == len(want)
    assert (pats[0], pats[-1]) == (want[0], want[-1])
    for row in rows:
        assert pats[bisect_left(pats, row)] == row
    if n <= semantics.MEMO_EVAL_VARS:  # evaluate now reads the swept masks
        assert [evaluate(c, t.input) for t in traces] == traces


# --------------------------------------------------------------------------
# blocked sweeps: n > BLOCK_VARS


def _inputs(n):
    return "".join(f"INPUT x{i}\n" for i in range(n))


def test_blocked_sweeps_hold_kilobytes_of_masks():
    c = _circuit(20, 300, seed=7)
    var_masks(BLOCK_VARS)  # the cached columns are shared by every sweep
    for fn in (energy_exhaustive, truth_table):
        tracemalloc.start()
        try:
            fn(c)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 << 20, (fn.__name__, peak)


def test_blocked_psens_holds_blocks_not_columns(monkeypatch):
    # a full-support n = 20 table: every block is counted.  The whole-width
    # count held 1.7 MiB and cached 20 columns of 128 KiB each
    f = TruthTable(20, random.Random(20).getrandbits(1 << 20))
    assert all(f.depends_on(v) for v in range(20))
    widths = []
    monkeypatch.setattr(semantics, "var_masks", lambda k: widths.append(k) or var_masks(k))
    var_masks(BLOCK_VARS)
    tracemalloc.start()
    try:
        psens(f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak
    assert widths and max(widths) <= BLOCK_VARS, widths


@pytest.mark.parametrize("body, ec, index", [
    # block 0 peaks at 1 (input 3); only block 1 reaches 2
    ("a = AND x0 x1\nb = AND a x16\nOUTPUT b\n", 2, 3 | 1 << 16),
    # both blocks peak at 2: the first argmax stays in block 0
    ("a = AND x0 x1\nb = OR x2 x16\nOUTPUT b\n", 2, 7),
])
def test_first_argmax_across_blocks(body, ec, index):
    c = parse_netlist(_inputs(17) + body)
    rep = energy_exhaustive(c)
    assert rep.ec == ec
    assert rep.argmax_input == tuple((index >> i) & 1 for i in range(17))
    arr = energies(c)
    assert int(arr.max()) == ec and int(arr.argmax()) == index


DEAD_GATES = (
    "dead = AND x16 x17\n"
    "a = OR x0 x17\n"
    "na = NOT a\n"
    "b = AND na x16\n"
    "o = OR b x1\n"
    "after = NOT o\n"
    "OUTPUT o\n"
)


@pytest.mark.parametrize("c", [parse_netlist(_inputs(18) + DEAD_GATES)]
                         + [_circuit(18, 40, seed=s) for s in range(4)])
def test_truth_table_matches_gate_masks_over_blocks(c):
    assert c.num_vars == 18
    assert truth_table(c).bits == gate_masks(c)[c.output]


# --------------------------------------------------------------------------
# blocked counting against whole-width masks: above 2^16 inputs each level
# counts on top of the level below, level 0 on top of the complement pairs,
# and a block re-counts only the levels whose high variables changed


def _counts(planes, total):
    return sum(_unpacked(p, total) << j for j, p in enumerate(planes))


def _unpacked(mask, total):
    raw = np.frombuffer(mask.to_bytes(total >> 3, "little"), dtype=np.uint8)
    return np.unpackbits(raw, bitorder="little").astype(np.int64)


@pytest.mark.parametrize("n", [17, 20])
def test_count_planes_starts_from_planes(n):
    rng = random.Random(n)
    width = 1 << n
    masks = [rng.getrandbits(width) for _ in range(9)]
    start = [rng.getrandbits(width) for _ in range(3)] + [(1 << width) - 1]
    # plane j of the start stands for 2^j copies of its mask
    repeated = [p for j, p in enumerate(start) for _ in range(1 << j)]
    got = count_planes(masks, start)
    assert got == count_planes(repeated + masks)
    ones = sum(_unpacked(m, width) for m in masks)
    assert (_counts(got, width) == _counts(start, width) + ones).all()
    assert count_planes([], start) == start


PAIRS = (
    "a = AND x0 x16\n"
    "na = NOT a\n"  # a NOT over an op gate: a pair
    "nna = NOT na\n"  # NOT(NOT a): na is paired already
    "nb = NOT a\n"  # a second NOT over a: a is paired already
    "nx = NOT x17\n"  # a NOT over an INPUT, which is never counted
    "f = OR x1 x2\n"
    "nf = NOT f\n"  # a fixed pair
    "o = OR nna nb nx nf x3\n"
    "OUTPUT o\n"
)
HIGH_ONLY = (
    "h = AND x16 x17\n"  # reads only x16 and above
    "nh = NOT h\n"
    "g = OR h x18\n"
    "c = AND x0 x1\n"
    "o = OR g c nh\n"
    "OUTPUT o\n"
)
ALL_FIXED = "a = AND x0 x1\nna = NOT a\no = OR na x15\nOUTPUT o\n"
# block 0 peaks at 4 on input 4|8 = 12 (the pair, f, g, h); block 1 ties
TIE = (
    "a = AND x0 x1\nna = NOT a\n"
    "f = OR x2 x3\ng = AND x2 x3\nh = OR x2 x16\n"
    "OUTPUT h\n"
)
# n = 18: p is at level 1 (x17), h and o at level 2 (x16).  Blocks 2 and 3
# both peak at 3 (p, h and o), first on local inputs 3 and 1; block 3 sweeps
# and counts only level 2, so its peak includes p's carried-over count and
# only ties block 2's, whose argmax stays
LEVEL_TIE = "p = AND x0 x17\nh = OR x1 x16\no = OR p h\nOUTPUT o\n"
# n = 18: more gates read x16 than x17, so x17 takes block bit 0 and the
# blocks run as 0, 2, 1, 3.  Blocks 1 and 2 both peak at 5 (blocks 0 and 3
# at 4 and 3), first on local inputs 1 and 2; block 2 runs first, and
# block 1's smaller index takes the tie
ORDER_TIE = (
    "n16 = NOT x16\nn17 = NOT x17\n"
    "a = AND x16 n17\nb = AND x17 n16\np = OR x16 x17\n"
    "q = AND x0 x16\nr = AND x1 n16\n"
    "o = OR a b p q r\nOUTPUT o\n"
)
ALL_HIGH = {f"n{n}-seed{s}-all-high": _circuit(n, 60, seed=s)
            for n, s in ((17, 26), (18, 32), (19, 54))}
BLOCKED_CASES = {
    "pairs": parse_netlist(_inputs(18) + PAIRS),
    "high-only": parse_netlist(_inputs(19) + HIGH_ONLY),
    "all-fixed": parse_netlist(_inputs(17) + ALL_FIXED),
    "tie": parse_netlist(_inputs(17) + TIE),
    **{f"n{n}-seed{s}": _circuit(n, 40, seed=s) for n, s in ((17, 11), (19, 12), (20, 13))},
    "n18-monotone": _circuit(18, 30, MONOTONE, seed=14),
    "level-tie": parse_netlist(_inputs(18) + LEVEL_TIE),
    **ALL_HIGH,
    "order-tie": parse_netlist(_inputs(18) + ORDER_TIE),
}


@pytest.mark.parametrize("name", list(BLOCKED_CASES))
def test_blocked_energy_matches_whole_width_masks(name):
    c = BLOCKED_CASES[name]
    n = c.num_vars
    ref = energies(c)
    rep = energy_exhaustive(c)
    best = int(ref.argmax())  # the first input attaining the maximum
    assert rep.ec == ref[best]
    assert rep.argmax_input == tuple((best >> i) & 1 for i in range(n))
    at = np.random.default_rng(n).integers(0, 1 << n, size=200, dtype=np.uint64)
    at[:2] = (0, (1 << n) - 1)
    m = energy_moments(c, at)
    assert (m.total, m.square_total) == (int(ref.sum()), int((ref * ref).sum()))
    assert (m.drawn == ref[at.astype(np.intp)]).all()
    kinds = [g.kind for g in c.gates if g.kind in OP_KINDS]
    rng = random.Random(name)
    for counted in ([k != NOT for k in kinds], [rng.random() < 0.5 for _ in kinds]):
        sub = energies(c, counted)
        best = int(sub.argmax())
        assert max_firing(c, counted=counted) == (sub[best], tuple((best >> i) & 1 for i in range(n)))
    assert truth_table(c).bits == gate_masks(c)[c.output]


@pytest.mark.parametrize("name", list(ALL_HIGH))
def test_all_high_cases_depend_on_every_high_variable(name):
    c = ALL_HIGH[name]
    f = truth_table(c)
    assert all(f.depends_on(v) for v in range(BLOCK_VARS, c.num_vars))


def test_first_argmax_tie_across_blocks_with_a_start():
    ref = energies(BLOCKED_CASES["tie"])
    half = 1 << BLOCK_VARS
    assert ref[:half].max() == ref[half:].max() == 4
    assert energy_exhaustive(BLOCKED_CASES["tie"]).argmax_input == tuple(
        (12 >> i) & 1 for i in range(17))


def test_first_argmax_tie_with_a_carried_level():
    c = BLOCKED_CASES["level-tie"]
    ref = energies(c)
    half = 1 << BLOCK_VARS
    assert [int(ref[b * half:(b + 1) * half].max()) for b in range(4)] == [2, 2, 3, 3]
    assert int(ref[3 * half:].argmax()) == 1  # block 3's own first peak
    index = 3 | 2 << BLOCK_VARS
    assert energy_exhaustive(c).argmax_input == tuple((index >> i) & 1 for i in range(18))


# n = 19: level l reads x(19 - l) as its lowest high variable; c and d mix
# levels, and dead is outside the output cone
LEVELS = (
    "a = AND x0 x1\n"  # level 0
    "b = OR x18 x2\n"  # level 1
    "nb = NOT b\n"  # level 1
    "c = AND x17 b\n"  # levels 2 and 1: level 2
    "d = OR x16 a\n"  # levels 3 and 0: level 3
    "e = AND c d x18\n"  # level 3
    "o = OR e nb a\n"
    "dead = AND x17 x18\n"  # level 2
    "OUTPUT o\n"
)


def test_a_level_l_gate_is_swept_two_to_the_l_times(monkeypatch):
    c = parse_netlist(_inputs(19) + LEVELS)
    n = c.num_vars
    # the level from each gate's support: n - (its lowest variable >= 16)
    support: list[set] = []
    for kind, ch, arg in c.gates:
        support.append({arg} if kind == INPUT else set().union(*(support[x] for x in ch)))
    high = [min((v for v in sup if v >= BLOCK_VARS), default=n) for sup in support]
    level = [n - v for v in high]
    assert set(level) == {0, 1, 2, 3}
    swept = [0] * len(c.gates)
    sweep = semantics._sweep

    def counting(circuit, masks, ids, *rest):
        for gid in ids:
            swept[gid] += 1
        return sweep(circuit, masks, ids, *rest)

    monkeypatch.setattr(semantics, "_sweep", counting)
    energy_exhaustive(c)
    assert swept == [1 << lv for lv in level]
    swept[:] = [0] * len(c.gates)
    truth_table(c)  # sweeps only the output cone
    cone = {c.output}
    for gid in range(c.output, -1, -1):
        if gid in cone:
            cone.update(c.gates[gid].children)
    assert len(c.gates) - 1 not in cone
    assert swept == [1 << lv if gid in cone else 0 for gid, lv in enumerate(level)]


# --------------------------------------------------------------------------
# the block order: each circuit's high variables take the block bits in the
# order that makes the fewest gate sweeps, the lexicographically smallest
# such order; blocks then need not run in input order


def _high_sets(c):
    """Each gate's set of variables >= BLOCK_VARS, from its support."""
    sets: list[frozenset] = []
    for kind, ch, arg in c.gates:
        if kind == INPUT:
            sets.append(frozenset({arg} if arg >= BLOCK_VARS else ()))
        else:
            sets.append(frozenset().union(*(sets[x] for x in ch)))
    return sets


def _order_levels(c, order):
    """Each gate's level when variable BLOCK_VARS + order[p] takes block
    bit p: top - p for the lowest such p among its variables, else 0."""
    top = c.num_vars - BLOCK_VARS
    bit = {BLOCK_VARS + v: p for p, v in enumerate(order)}
    return [top - min(map(bit.__getitem__, s)) if s else 0 for s in _high_sets(c)]


def _cone_ids(c):
    cone = {c.output}
    for gid in range(c.output, -1, -1):
        if gid in cone:
            cone.update(c.gates[gid].children)
    return sorted(cone)


ORDER_CASES = {
    **{f"n{n}-seed{s}": _circuit(n, 80, seed=s) for n in range(17, 22) for s in (60, 61)},
    "level-tie": BLOCKED_CASES["level-tie"],
    "order-tie": BLOCKED_CASES["order-tie"],
}


@pytest.mark.parametrize("name", list(ORDER_CASES))
def test_block_order_is_the_first_of_the_best_orders(name):
    c = ORDER_CASES[name]
    top = c.num_vars - BLOCK_VARS
    for ids in (range(len(c.gates)), _cone_ids(c)):
        sweeps = {}
        for order in permutations(range(top)):
            level = _order_levels(c, order)
            sweeps[order] = sum(1 << level[gid] for gid in ids)
        fewest = min(sweeps.values())
        order, levels = semantics._levels(c, ids)
        assert tuple(order) == min(o for o, k in sweeps.items() if k == fewest)
        level = _order_levels(c, order)
        assert levels == [[gid for gid in ids if level[gid] == lv] for lv in range(top + 1)]


def test_block_order_keeps_the_identity_when_it_ties():
    c = ORDER_CASES["level-tie"]
    ids = range(len(c.gates))
    counts = [sum(1 << lv for lv in _order_levels(c, order)) for order in ((0, 1), (1, 0))]
    assert counts == [32, 32]
    assert semantics._levels(c, ids)[0] == [0, 1]


def test_first_argmax_tie_across_blocks_run_out_of_order():
    c = BLOCKED_CASES["order-tie"]
    assert semantics._levels(c, range(len(c.gates)))[0] == [1, 0]  # x17 at bit 0
    ref = energies(c)
    half = 1 << BLOCK_VARS
    assert [int(ref[b * half:(b + 1) * half].max()) for b in range(4)] == [4, 5, 5, 3]
    assert (int(ref[half:2 * half].argmax()), int(ref[2 * half:3 * half].argmax())) == (1, 2)
    index = 1 | 1 << BLOCK_VARS  # in block 1, which runs after block 2
    assert energy_exhaustive(c).argmax_input == tuple((index >> i) & 1 for i in range(18))


def test_a_gate_is_swept_two_to_its_level_under_the_chosen_order(monkeypatch):
    c = BLOCKED_CASES["n19-seed54-all-high"]
    order = semantics._levels(c, range(len(c.gates)))[0]
    assert order == [1, 2, 0]
    assert sum(1 << lv for lv in _order_levels(c, (0, 1, 2))) == 259  # input order
    level = _order_levels(c, order)
    swept = [0] * len(c.gates)
    sweep = semantics._sweep

    def counting(circuit, masks, ids, *rest):
        for gid in ids:
            swept[gid] += 1
        return sweep(circuit, masks, ids, *rest)

    monkeypatch.setattr(semantics, "_sweep", counting)
    energy_exhaustive(c)
    assert swept == [1 << lv for lv in level] and sum(swept) == 195
    swept[:] = [0] * len(c.gates)
    truth_table(c)  # its order is chosen over the output cone
    cone = _cone_ids(c)
    level = _order_levels(c, semantics._levels(c, cone)[0])
    assert swept == [1 << lv if gid in cone else 0 for gid, lv in enumerate(level)]


@pytest.mark.parametrize("n", [17, 20])
def test_blocked_readonce_matches_whole_width_masks(n):
    f = generate(GenSpec(seed=n, num_vars=n, size_budget=n, neg_density=0.5,
                         shape="READONCE_LEAFNEG"))
    assert any(g.kind == NOT for g in f.gates)
    binary = [g.kind != NOT for g in f.gates if g.kind in OP_KINDS]
    ref = energies(f, binary)
    rep = readonce_leafneg_energy(f)
    best = int(ref.argmax())
    assert rep.ec == ref[best] == n - 1
    assert rep.witness_input == tuple((best >> i) & 1 for i in range(n))


# --------------------------------------------------------------------------
# the sweep kernel against whole-width masks, which are checked in turn
# against a numpy evaluation gate by gate: AND/OR over more than two
# children, CONST gates, NOT over NOT, n = 0 and 1, a multi-tap circuit, a
# compiled tree, and a circuit over two blocks

KERNEL = (
    "k1 = CONST 1\n"
    "k0 = CONST 0\n"
    "a = AND x0 x1 x2 k1\n"
    "o = OR x3 a k0 x1 x0\n"
    "na = NOT a\n"
    "nna = NOT na\n"
    "nk = NOT k0\n"
    "b = AND nna o nk\n"
    "c = OR b na x2\n"
    "d = AND k0 x2\n"  # never fires
    "e = OR c d\n"
    "ne = NOT e\n"
    "f = AND e x1\n"
)
KERNEL_CASES = {
    "wide-const-notnot": parse_netlist(_inputs(4) + KERNEL + "OUTPUT f\n"),
    "n0": parse_netlist(
        "g0 = CONST 0\ng1 = NOT g0\ng2 = NOT g1\ng3 = OR g0 g1 g2\ng4 = AND g1 g3 g1\nOUTPUT g4\n"
    ),
    "n1": parse_netlist(
        "INPUT x0\nk = CONST 1\nn = NOT x0\nnn = NOT n\na = AND x0 k nn\no = OR n a k\nOUTPUT o\n"
    ),
    "multi-tap": minterm_cascade(3).circuit,
    "compiled-tree": dt_to_circuit(
        generate(GenSpec(seed=3, num_vars=8, size_budget=7, shape="DTREE"))
    ).circuit,
    "n17-two-blocks": parse_netlist(
        _inputs(17) + KERNEL.replace("x3", "x16") + "g = OR nna x16 k0 x5\nng = NOT g\nOUTPUT f\n"
    ),
}


@pytest.mark.parametrize("name", list(KERNEL_CASES))
def test_sweep_kernel_matches_whole_width_masks(name):
    c = KERNEL_CASES[name]
    n = c.num_vars
    masks = gate_masks(c)
    assert all((lanes(m, n) == v).all() for m, v in zip(masks, gate_lanes(c)))

    def first(counts):
        best = int(counts.argmax())
        return counts[best], tuple((best >> i) & 1 for i in range(n))

    ref = energies(c)
    rep = energy_exhaustive(c)
    assert (rep.ec, rep.argmax_input) == first(ref)
    assert truth_table(c).bits == masks[c.output]
    if n <= 12:
        at = np.arange(1 << n, dtype=np.uint64)
    else:
        at = np.random.default_rng(n).integers(0, 1 << n, size=300, dtype=np.uint64)
        at[:2] = (0, (1 << n) - 1)
    m = energy_moments(c, at)
    assert (m.total, m.square_total) == (int(ref.sum()), int((ref * ref).sum()))
    assert (m.drawn == ref[at.astype(np.intp)]).all()
    kinds = [g.kind for g in c.gates if g.kind in OP_KINDS]
    rng = random.Random(name)
    for counted in (
        [k != NOT for k in kinds],  # as readonce_leafneg_energy counts
        [rng.random() < 0.5 for _ in kinds],
        [False] * len(kinds),
    ):
        assert max_firing(c, counted=counted) == first(energies(c, counted))


def test_truth_table_from_values_and_cofactor():
    f = TruthTable.from_values(2, [0, 1, 1, 0])
    assert f == XOR2
    assert f.cofactor(0, 1).value_at((1, 1)) == 0
    assert f.depends_on(0) and f.depends_on(1)
    assert not TruthTable(2, 0b1111).depends_on(0)


def test_padded_tiles():
    f = TruthTable(1, 0b10)  # x0
    g = f.padded(2)
    assert g.bitstring() == "0101"


def test_evaluate_counts_op_gates_only():
    c = parse_netlist("INPUT x0\ng1 = CONST 1\ng2 = AND x0 g1\nOUTPUT g2\n")
    tr = evaluate(c, (1,))
    assert tr.value == 1
    assert tr.energy == 1  # the AND; INPUT and CONST never count


def test_evaluate_length_mismatch():
    c = fixture("and_tree(2)")
    with pytest.raises(LengthMismatch):
        evaluate(c, (1, 0, 1))


def test_energy_exhaustive_first_argmax():
    c = parse_netlist("INPUT x0\nINPUT x1\ng2 = NOT x0\nOUTPUT g2\n")
    rep = energy_exhaustive(c)
    assert rep.ec == 1
    assert rep.argmax_input == (0, 0)  # first input reaching the peak


@given(st.integers(0, 2**16 - 1), st.integers(0, 15))
def test_energies_matches_evaluate(bits, j):
    from circuit_energy.synth import compile_truth_table

    c = compile_truth_table(TruthTable(4, bits))
    arr = energies(c)
    x = tuple((j >> i) & 1 for i in range(4))
    assert int(arr[j]) == evaluate(c, x).energy


def test_firing_patterns_and2():
    c = fixture("and_tree(2)")
    assert firing_patterns(c) == [(0,), (1,)]


def test_firing_patterns_cover_inputs_without_gates():
    c = parse_netlist("INPUT x0\nOUTPUT x0\n")
    assert firing_patterns(c) == [()]


def _patterns_ref(c):
    """Sorted distinct tuples of non-input gate values, read off gate_masks."""
    masks = [m for g, m in zip(c.gates, gate_masks(c)) if g.kind != INPUT]
    return sorted({tuple((m >> j) & 1 for m in masks) for j in range(1 << c.num_vars)})


def _check_patterns(c):
    pats, want = firing_patterns(c), _patterns_ref(c)
    assert list(pats) == want and pats.width == len(want[0])
    # rows are big-endian packed, zero-padded and contiguous
    packed = np.packbits(np.array(want, dtype=np.uint8).reshape(len(want), -1), axis=1)
    assert pats.rows.flags.c_contiguous and pats.rows.tobytes() == packed.tobytes()
    return want


@pytest.mark.parametrize("count", [1, 7, 8, 9, 63, 64, 65])
@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_firing_patterns_pack_any_gate_count(n, count):
    # fewer than 8 inputs leave part of a mask byte unused, and the gate
    # counts fall on both sides of the 8-gate groups and 64-bit words
    rng = random.Random(100 * n + count)
    gates = [Gate(INPUT, (), v) for v in range(n)]
    for _ in range(count):
        kind = rng.choice([CONST, NOT, AND, OR] if gates else [CONST])
        if kind == CONST:
            gates.append(Gate(CONST, (), rng.randint(0, 1)))
        else:
            k = 1 if kind == NOT else rng.randint(2, 3)
            gates.append(Gate(kind, tuple(rng.randrange(len(gates)) for _ in range(k))))
    _check_patterns(Circuit(n, gates, len(gates) - 1))


def test_firing_patterns_keep_trailing_zero_bytes():
    # byte strings compare with their trailing NUL bytes: rows that differ
    # only in a last byte of 0x00 against 0x80 stay two rows, in order, and
    # the all-zero row is kept
    head = "INPUT x0\nINPUT x1\n" + "".join(f"z{k} = CONST 0\n" for k in range(8))
    c = parse_netlist(head + "a = AND x0 x1\nOUTPUT a\n")
    assert _check_patterns(c) == [(0,) * 9, (0,) * 8 + (1,)]
    tail = "".join(f"t{k} = CONST 0\n" for k in range(8))
    c = parse_netlist(head + "a = AND x0 x1\n" + tail + "OUTPUT a\n")
    assert _check_patterns(c) == [(0,) * 17, (0,) * 8 + (1,) + (0,) * 8]
    c = parse_netlist("INPUT x0\n" + "".join(f"o{k} = OR x0 x0\n" for k in range(8))
                      + tail + "OUTPUT o0\n")
    assert _check_patterns(c) == [(0,) * 16, (1,) * 8 + (0,) * 8]


def test_firing_patterns_stay_packed():
    # 14 016 patterns of 280 gates: as tuples they would take about 33 MB
    c = _circuit(14, 280, MONOTONE, seed=1)
    firing_patterns(_fresh(c))  # the cached variable columns are shared by every sweep
    tracemalloc.start()
    try:
        pats = firing_patterns(c)  # its sweep included
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(pats) == 14016 and len(pats[-1]) == 280
    assert peak < 8 << 20, peak


def test_psens_oracles():
    and3 = fixture("and_tree(3)")
    rep = psens(truth_table(and3))
    assert rep.value == 3
    assert rep.witness_input == (1, 1, 1)
    assert rep.witness_indices == {0, 1, 2}

    or4 = fixture("or_tree(4)")
    assert psens(truth_table(or4)).value == 1

    assert psens(TruthTable(2, 0b1111)).value == 0
    assert psens(TruthTable(3, sum(1 << j for j in range(8) if bin(j).count("1") % 2))).value == 3


def test_psens_at():
    f = truth_table(fixture("or_tree(3)"))
    assert psens_at(f, (1, 0, 0)) == {0}
    assert psens_at(f, (1, 1, 0)) == set()


# --------------------------------------------------------------------------
# psens against the whole-width reference of tests/psens_ref.py


def _assert_psens_matches(f):
    got = psens(f)
    assert got == psens_ref(f), (f.num_vars, got)
    return got


def test_psens_matches_the_reference_on_every_small_table():
    for n in range(4):
        for bits in range(1 << (1 << n)):
            _assert_psens_matches(TruthTable(n, bits))


@pytest.mark.parametrize("n", range(4, 21))
def test_psens_matches_the_reference_on_seeded_tables(n):
    rng = random.Random(n)
    for _ in range(3 if n <= 16 else 1):
        _assert_psens_matches(TruthTable(n, rng.getrandbits(1 << n)))


@pytest.mark.parametrize("n", range(17, 21))
def test_psens_matches_the_reference_when_some_high_variables_are_unread(n):
    # block b repeats the random block its read high bits select, so the
    # table reads exactly the high variables in `read`
    rng = random.Random(100 + n)
    high = n - BLOCK_VARS
    for read in ([], [high - 1], sorted({0, high - 1}), rng.sample(range(high), rng.randint(1, high))):
        rows = [rng.randbytes(1 << (BLOCK_VARS - 3)) for _ in range(1 << len(read))]
        pick = [sum(((b >> j) & 1) << r for r, j in enumerate(read)) for b in range(1 << high)]
        f = TruthTable(n, int.from_bytes(b"".join(rows[p] for p in pick), "little"))
        assert [v - BLOCK_VARS for v in range(BLOCK_VARS, n) if f.depends_on(v)] == sorted(read)
        _assert_psens_matches(f)


@pytest.mark.parametrize("name", list(BLOCKED_CASES))
def test_psens_matches_the_reference_on_blocked_cases(name):
    _assert_psens_matches(truth_table(BLOCKED_CASES[name]))


@pytest.mark.parametrize("n", range(17, 21))
@pytest.mark.parametrize("size", [150, 300])
def test_psens_matches_the_reference_on_wide_circuits(n, size):
    _assert_psens_matches(truth_table(_circuit(n, size, seed=n * size)))


def _psens_hand(name, n):
    top, high = n - 1, range(BLOCK_VARS, n)
    bodies = {
        "low-only": "a = AND x0 x7\nb = OR x3 x15\no = OR a b\n",
        "top-only": f"o = NOT x{top}\n",
        "all-high": "".join(f"h{v} = OR x{v} x0\n" for v in high)
                    + "o = AND x1 " + " ".join(f"h{v}" for v in high) + "\n",
        # x0 and x1 reach 2 in block 0, x2 and the top variable reach 2 in
        # a later block: the first argmax, input 3, stays in block 0
        "tie": f"a = AND x0 x1\nb = AND x2 x{top}\no = OR a b\n",
    }
    return truth_table(parse_netlist(_inputs(n) + bodies[name] + "OUTPUT o\n"))


@pytest.mark.parametrize("n", [17, 20])
@pytest.mark.parametrize("name", ["zero", "one", "low-only", "top-only", "all-high", "tie"])
def test_psens_matches_the_reference_on_hand_tables(n, name):
    if name in ("zero", "one"):
        f = TruthTable(n, 0 if name == "zero" else (1 << (1 << n)) - 1)
    else:
        f = _psens_hand(name, n)
    reads = [v for v in range(BLOCK_VARS, n) if f.depends_on(v)]
    assert reads == {"top-only": [n - 1], "tie": [n - 1],
                     "all-high": list(range(BLOCK_VARS, n))}.get(name, [])
    rep = _assert_psens_matches(f)
    if name in ("zero", "one"):
        assert rep.value == 0 and rep.witness_input == (0,) * n
    if name == "tie":
        assert rep.value == 2 and rep.witness_input == (1, 1) + (0,) * (n - 2)
        assert psens_at(f, (0, 0, 1) + (0,) * (n - 4) + (1,)) == {2, n - 1}


def test_is_monotone():
    assert is_monotone(truth_table(fixture("and_tree(3)")))
    assert not is_monotone(XOR2)


def test_dt_depth_oracles():
    assert dt_depth(truth_table(fixture("and_tree(4)"))).depth == 4
    xor3 = TruthTable(3, sum(1 << j for j in range(8) if bin(j).count("1") % 2))
    assert dt_depth(xor3).depth == 3
    addr1 = truth_table(fixture("addr(1)"))
    assert dt_depth(addr1).depth == 2
    assert dt_depth(TruthTable(3, 0)).depth == 0


def test_dt_depth_returns_an_optimal_tree():
    f = truth_table(fixture("addr(1)"))
    res = dt_depth(f)
    got = TruthTable.from_callable(f.num_vars, res.optimal_tree.evaluate)
    assert got == f
    assert res.optimal_tree.depth() == res.depth


def test_dt_depth_is_pinned_on_small_and_seeded_tables():
    # every table of n <= 3 variables and 400 seeded tables of n = 4-5: pins
    # each depth and the optimal tree that the smallest-variable tie-break picks
    h = hashlib.sha256()
    tables = [TruthTable(n, bits) for n in range(4) for bits in range(1 << (1 << n))]
    rng = random.Random(20)
    tables += [TruthTable(n, rng.getrandbits(1 << n)) for n in (4, 5) for _ in range(200)]
    for f in tables:
        res = dt_depth(f)
        assert res.optimal_tree.depth() == res.depth
        h.update(repr((f.num_vars, f.bits, res.depth, res.optimal_tree.root)).encode())
    assert len(tables) == 678
    assert h.hexdigest() == "ce65bf1fcbed58c06060581f6849ce7945328f46dc0cf7bb7360c04a4a4c6730"


def test_equivalent_pads_to_common_width():
    c1 = parse_netlist("INPUT x0\nOUTPUT x0\n")
    c2 = parse_netlist("INPUT x0\nINPUT x1\ng2 = AND x0 x0\nOUTPUT g2\n")
    assert equivalent(c1, c2)


def test_eval_cap_guard():
    big = GenSpec(seed=0, num_vars=30, size_budget=3, shape="CIRCUIT")
    c = generate(big)
    for sweep in (truth_table, energy_exhaustive, gate_masks, firing_patterns):
        with pytest.raises(CapExceeded):
            sweep(c)


# --------------------------------------------------------------------------
# the whole-width masks of a circuit of at most 2^16 inputs are swept once,
# kept on the circuit, and read by every later sweep


def _count_sweeps(monkeypatch) -> list:
    calls = []
    sweep = semantics._sweep

    def counting(*args):
        calls.append(args[0])
        return sweep(*args)

    monkeypatch.setattr(semantics, "_sweep", counting)
    return calls


def test_every_sweep_of_a_circuit_shares_one_kernel_run(monkeypatch):
    c = _circuit(10, 60, seed=5)
    n = c.num_vars
    ops = sum(g.kind in OP_KINDS for g in c.gates)
    counted = [k % 3 != 0 for k in range(ops)]
    at = [0, 5, (1 << n) - 1]
    xs = [tuple((j >> i) & 1 for i in range(n)) for j in at]

    def everything(circuit):
        return (truth_table(circuit), energy_exhaustive(circuit),
                max_firing(circuit, counted=counted), energy_moments(circuit, at),
                gate_masks(circuit), list(firing_patterns(circuit)),
                [evaluate(circuit, x) for x in xs])

    want = everything(_fresh(c))
    calls = _count_sweeps(monkeypatch)
    got = everything(c)
    assert calls == [c]
    assert got[:3] + got[4:] == want[:3] + want[4:]
    assert (got[3].total, got[3].square_total) == (want[3].total, want[3].square_total)
    assert got[3].drawn.tolist() == want[3].drawn.tolist()


def test_evaluate_never_sweeps(monkeypatch):
    c = _circuit(10, 60, seed=5)
    calls = _count_sweeps(monkeypatch)
    evaluate(c, (1,) * c.num_vars)
    assert calls == [] and c.swept is None


def test_gate_masks_hands_out_a_copy():
    c = _circuit(8, 40, seed=2)
    f, rep = truth_table(c), energy_exhaustive(c)
    masks = gate_masks(c)
    want = list(masks)
    masks[c.output] ^= 1
    masks[:] = [0] * len(masks)
    assert gate_masks(c) == want and c.swept == tuple(want)
    assert (truth_table(c), energy_exhaustive(c)) == (f, rep)


def test_a_swept_circuit_is_still_refused(monkeypatch):
    c = _circuit(10, 60, seed=5)
    gate_masks(c)
    assert c.swept is not None
    for sweep in (truth_table, energy_exhaustive, max_firing, gate_masks, firing_patterns,
                  lambda c, cap: energy_moments(c, [0], cap)):
        with pytest.raises(CapExceeded):
            sweep(c, 9)
    monkeypatch.setattr(semantics, "MASK_BUDGET", (len(c.gates) << 10 >> 3) - 1)
    for sweep in (gate_masks, firing_patterns):
        with pytest.raises(CapExceeded, match="MB budget"):
            sweep(c)


def test_circuits_over_several_blocks_keep_no_masks():
    c = SWEEP_CASES["n17"]
    truth_table(c), energy_exhaustive(c), energy_moments(c, [0]), gate_masks(c)
    evaluate(c, (1,) * c.num_vars)
    assert c.swept is None

import pytest

from circuit_energy import (
    INPUT,
    CapExceeded,
    LengthMismatch,
    NoPathFound,
    NOT,
    TruthTable,
    check_psens_bound,
    dt_from_patterns,
    find_positive_path,
    truth_table,
)
from circuit_energy.corpus import CIRCUIT, FORMULA, MONOTONE, GenSpec, fixture, generate
from circuit_energy.ir import AND, FANIN2, OR, UNBOUNDED, Formula, Gate, dt_depth_of
from circuit_energy.semantics import dt_depth
from circuit_energy.textio import parse_netlist
from path_ref import find_positive_path as bfs_path
from patterns_ref import dt_from_patterns as resweep_patterns

AND2 = "INPUT x0\nINPUT x1\ng = AND x0 x1\nOUTPUT g\n"
WITH_NOT = (
    "INPUT x0\nINPUT x1\n"
    "a = AND x0 x1\n"
    "na = NOT a\n"
    "o = OR na x1\n"
    "OUTPUT o\n"
)


def test_positive_path_to_root():
    c = parse_netlist(AND2)
    p = find_positive_path(c, (1, 1), 0)
    assert p.terminal == "ROOT"
    assert p.not_gate_id is None
    assert p.gate_ids == (0, 2)
    assert c.gates[p.gate_ids[0]].kind == INPUT
    assert p.gate_ids[-1] == c.output


def test_positive_path_stops_at_not_feeder():
    # x0 is positively sensitive at (1,0): o = NOT(x0 AND x1) OR x1, and
    # flipping x0 down... it is not. Use a circuit where the only route up
    # passes a NOT feeder: f = NOT(AND(x0, x1)) is antitone, so take
    # f = AND(x0, NOT(NOT(x1))) instead -- the x1 path must stop at gate
    # feeding the inner NOT.
    c = parse_netlist(
        "INPUT x0\nINPUT x1\nn1 = NOT x1\nn2 = NOT n1\ng = AND x0 n2\nOUTPUT g\n"
    )
    p = find_positive_path(c, (1, 1), 1)
    assert p.terminal == "FEEDS_NOT"
    assert c.gates[p.not_gate_id].kind == NOT
    # path is the bare INPUT gate of x1, which feeds n1
    assert p.gate_ids == (1,)


def test_positive_path_requires_sensitivity():
    c = parse_netlist(AND2)
    with pytest.raises(NoPathFound):
        find_positive_path(c, (1, 0), 0)  # f=0 here and stays 0
    with pytest.raises(NoPathFound):
        find_positive_path(c, (0, 1), 0)  # a_0 = 0
    with pytest.raises(NoPathFound):
        find_positive_path(c, (1, 1), 2)  # no x2
    with pytest.raises(LengthMismatch):
        find_positive_path(c, (1, 1, 1), 0)
    with pytest.raises(CapExceeded):
        find_positive_path(c, (1, 1), 0, cap=1)


def test_positive_path_prefers_low_gate_ids():
    # two disjoint firing routes for x0; BFS must come back with the lower ids
    c = parse_netlist(
        "INPUT x0\nINPUT x1\n"
        "a = OR x0 x1\n"
        "b = OR x0 x0\n"
        "o = OR a b\n"
        "OUTPUT o\n"
    )
    p = find_positive_path(c, (1, 0), 0)
    assert p.gate_ids == (0, 2, 4)


def _outcome(search, c, a, i):
    """The path's fields, or the exception's type and message."""
    try:
        p = search(c, a, i)
    except Exception as exc:  # noqa: BLE001 - the error is the outcome
        return type(exc), str(exc)
    return p.gate_ids, p.terminal, p.not_gate_id, p.input, p.var_index


def test_positive_path_equals_the_breadth_first_search():
    # every (a, i), i from -1 to n, over seeded circuits of every shape and mode
    found = {"ROOT": 0, "FEEDS_NOT": 0, NoPathFound: 0}
    for s in range(126):
        n = 1 + s % 7
        spec = GenSpec(seed=s, num_vars=n, size_budget=2 + (s * 5) % 19,
                       neg_density=0.0 if s % 3 == 1 else 0.15 + (s % 4) / 8,
                       shape=(CIRCUIT, MONOTONE, FORMULA)[s % 3],
                       fanin_mode=(FANIN2, UNBOUNDED)[s // 7 % 2])
        c = generate(spec)
        for a_int in range(1 << n):
            a = tuple((a_int >> j) & 1 for j in range(n))
            for i in range(-1, n + 1):
                want = _outcome(bfs_path, c, a, i)
                assert _outcome(find_positive_path, c, a, i) == want, (spec, a, i)
                found[want[0] if len(want) == 2 else want[1]] += 1
    assert min(found.values()) > 100, found


@pytest.mark.parametrize("text, a, i, want", [
    # two routes of equal length: the lowest-id child at the least level is
    # the parent, whatever order the children are listed in
    ("INPUT x0\nINPUT x1\np = OR x1 x0\nq = OR x0 x1\no = AND q p\nOUTPUT o\n",
     (1, 0), 0, ((0, 2, 4), "ROOT", None)),
    # a NOT feeder and the output on one level: the lower id ends the chain
    ("INPUT x0\nINPUT x1\nf = OR x1 x0\nnf = NOT f\no = AND x0 x1\nOUTPUT o\n",
     (1, 1), 0, ((0, 2), "FEEDS_NOT", 3)),
    ("INPUT x0\nINPUT x1\no = AND x0 x1\nf = OR x1 x0\nnf = NOT f\nOUTPUT o\n",
     (1, 1), 0, ((0, 2), "ROOT", None)),
    # the output feeds NOTs itself: FEEDS_NOT, naming the lower NOT
    ("INPUT x0\nINPUT x1\no = AND x0 x1\nn1 = NOT o\nn2 = NOT o\nOUTPUT o\n",
     (1, 1), 1, ((1, 2), "FEEDS_NOT", 3)),
    # a wide AND, reached through an OR below it
    ("INPUT x0\nINPUT x1\nINPUT x2\nINPUT x3\nb = OR x3 x2\no = AND x0 b x1\n"
     "OUTPUT o\n", (1, 1, 1, 0), 2, ((2, 4, 5), "ROOT", None)),
])
def test_positive_path_ties_and_edges(text, a, i, want):
    c = parse_netlist(text)
    p = find_positive_path(c, a, i)
    assert (p.gate_ids, p.terminal, p.not_gate_id) == want
    assert _outcome(find_positive_path, c, a, i) == _outcome(bfs_path, c, a, i)


def test_positive_path_starts_at_the_first_input_gate():
    # (x0 OR x1) AND x0: the second INPUT gate of x0 is one level nearer the
    # output, but the search starts at the first
    f = Formula(2, [Gate(INPUT, (), 0), Gate(INPUT, (), 1), Gate(OR, (0, 1)),
                    Gate(INPUT, (), 0), Gate(AND, (2, 3))], 4)
    p = find_positive_path(f, (1, 0), 0)
    assert (p.gate_ids, p.terminal) == ((0, 2, 4), "ROOT")
    assert _outcome(find_positive_path, f, (1, 0), 0) == _outcome(bfs_path, f, (1, 0), 0)


def test_positive_path_falls_back_to_a_later_input_gate():
    # (x0 AND x1) OR x0 at (1, 0): the first leaf of x0 reaches no terminal,
    # since x0 AND x1 does not fire, so the chain starts at the second
    f = Formula(2, [Gate(INPUT, (), 0), Gate(INPUT, (), 1), Gate(AND, (0, 1)),
                    Gate(INPUT, (), 0), Gate(OR, (2, 3))], 4)
    p = find_positive_path(f, (1, 0), 0)
    assert (p.gate_ids, p.terminal) == ((3, 4), "ROOT")
    assert _outcome(find_positive_path, f, (1, 0), 0) == _outcome(bfs_path, f, (1, 0), 0)


@pytest.mark.parametrize("a, i", [((1, 1), -1), ((1, 1), 2), ((0, 1), 0)])
def test_positive_path_refuses_an_index_out_of_range_or_at_zero(a, i):
    c = parse_netlist(AND2)
    bits = "".join(map(str, a))
    with pytest.raises(NoPathFound, match=f"^x{i} is not positively sensitive at {bits}$"):
        find_positive_path(c, a, i)
    assert _outcome(find_positive_path, c, a, i) == _outcome(bfs_path, c, a, i)


def test_psens_bound_on_big_and():
    c = fixture("and_tree(4)")
    chk = check_psens_bound(c)
    assert chk.psens == 4
    assert chk.witness_input == (1, 1, 1, 1)
    assert chk.witness_indices == {0, 1, 2, 3}
    assert chk.fanin_bound == 2
    assert chk.holds
    # the AND tree actually sits on the floor's side comfortably: EC=3 >= 4/3
    assert chk.ec == 3


def test_psens_bound_unbounded_uses_actual_fanin():
    c = parse_netlist("INPUT x0\nINPUT x1\nINPUT x2\ng = AND x0 x1 x2\nOUTPUT g\n")
    chk = check_psens_bound(c)
    assert chk.fanin_bound == 3
    assert chk.psens == 3 and chk.ec == 1
    assert chk.holds  # 4*1 >= 3


def test_pattern_tree_and2():
    rep = dt_from_patterns(parse_netlist(AND2))
    assert rep.pattern_count == 2
    assert rep.size == 1
    assert rep.energy == 1
    assert rep.max_fanin == 2
    assert dt_depth_of(rep.extracted_tree.root) <= rep.max_fanin * rep.pattern_count
    assert rep.dt_oracle == 2
    assert rep.extracted_tree.depth() >= rep.dt_oracle


def test_pattern_tree_single_not():
    rep = dt_from_patterns(parse_netlist("INPUT x0\ng = NOT x0\nOUTPUT g\n"))
    assert rep.pattern_count == 2
    assert rep.extracted_tree.depth() == 1
    assert rep.extracted_tree.root == (0, 1, 0)


def test_pattern_tree_bare_input():
    rep = dt_from_patterns(parse_netlist("INPUT x0\nOUTPUT x0\n"))
    assert rep.pattern_count == 1  # no non-input gates: one empty pattern
    assert rep.size == 0 and rep.energy == 0
    assert rep.extracted_tree.root == (0, 0, 1)


def test_pattern_tree_matches_function_on_corpus():
    for s in range(30):
        c = generate(
            GenSpec(
                seed=s,
                num_vars=2 + s % 3,
                size_budget=3 + s % 8,
                neg_density=(s % 4) / 8.0,
                shape="CIRCUIT",
            )
        )
        rep = dt_from_patterns(c)
        got = TruthTable.from_callable(c.num_vars, rep.extracted_tree.evaluate)
        assert got == truth_table(c)
        assert dt_depth_of(rep.extracted_tree.root) <= rep.max_fanin * rep.pattern_count
        assert rep.pattern_count <= max(rep.size, 1) ** rep.energy + 1
        if rep.dt_oracle is not None:
            assert rep.dt_oracle <= rep.max_fanin * rep.pattern_count


def _tradeoff(rep):
    """Every field of a TradeoffReport, the tree as its root."""
    tree = rep.extracted_tree
    return (rep.size, rep.energy, rep.pattern_count, rep.max_fanin,
            tree.num_vars, tree.root, rep.dt_oracle)


def test_pattern_tree_equals_the_restrict_and_resweep_extraction():
    # seeded circuits of every shape and mode; each side gets its own copy,
    # so neither reads masks the other swept
    for s in range(3064):
        spec = GenSpec(seed=s, num_vars=1 + s % 5, size_budget=2 + (s * 7) % 23,
                       neg_density=0.0 if s % 3 == 1 else 0.15 + (s % 4) / 8,
                       shape=(CIRCUIT, MONOTONE, FORMULA)[s % 3],
                       fanin_mode=(FANIN2, UNBOUNDED)[s // 5 % 2])
        want = _tradeoff(resweep_patterns(generate(spec)))
        assert _tradeoff(dt_from_patterns(generate(spec))) == want, spec


def test_pattern_tree_counts_dead_gates_at_the_root_only():
    # NOT x1 is outside the output cone, yet the unrestricted circuit keeps
    # it, so the root queries x1; below, x1 = 1 leaves AND x0 1 to pick
    text = "INPUT x0\nINPUT x1\nn = NOT x1\no = AND x0 x1\nOUTPUT o\n"
    rep = dt_from_patterns(parse_netlist(text))
    assert rep.extracted_tree.root == (1, 0, (0, 0, 1))
    assert _tradeoff(rep) == _tradeoff(resweep_patterns(parse_netlist(text)))


def test_tradeoff_bound_on_the_cascade():
    # the cascade has huge size but tiny energy; the bound must still cover
    # the true decision-tree depth of a minterm (which needs all n queries)
    c = fixture("cascade_tap(3,5)")
    rep = dt_from_patterns(c)
    assert rep.dt_oracle == dt_depth(truth_table(c)).depth == 3
    assert rep.energy == 5  # 2n-1, every input fires one full tap chain
    assert rep.pattern_count == 8  # each input lights a distinct tap
    assert rep.max_fanin * rep.pattern_count >= rep.dt_oracle

import pytest

from circuit_energy import (
    BudgetInfeasible,
    CapExceeded,
    Circuit,
    DecisionTree,
    Formula,
    INPUT,
    NOT,
    TruthTable,
    UnknownFixture,
    is_monotone,
    truth_table,
)
from circuit_energy.corpus import GenSpec, fixture, generate, generate_nonskew


def test_generation_is_deterministic():
    spec = GenSpec(seed=17, num_vars=4, size_budget=9, neg_density=0.3)
    c1, c2 = generate(spec), generate(spec)
    assert c1.gates == c2.gates and c1.output == c2.output
    t1 = generate(GenSpec(seed=5, num_vars=5, size_budget=4, shape="DTREE"))
    t2 = generate(GenSpec(seed=5, num_vars=5, size_budget=4, shape="DTREE"))
    assert t1.root == t2.root
    f1 = generate_nonskew(9, 4, 6)
    f2 = generate_nonskew(9, 4, 6)
    assert f1.gates == f2.gates


def test_shapes_map_to_types():
    base = dict(seed=3, num_vars=3, size_budget=3)
    assert isinstance(generate(GenSpec(shape="CIRCUIT", **base)), Circuit)
    assert isinstance(generate(GenSpec(shape="MONOTONE", **base)), Circuit)
    assert isinstance(generate(GenSpec(shape="FORMULA", **base)), Formula)
    assert isinstance(generate(GenSpec(shape="READONCE_LEAFNEG", **base)), Formula)
    assert isinstance(generate(GenSpec(shape="DTREE", **base)), DecisionTree)
    with pytest.raises(ValueError):
        generate(GenSpec(shape="RING", **base))


def test_monotone_shape_has_no_negations():
    for s in range(25):
        c = generate(
            GenSpec(seed=s, num_vars=2 + s % 4, size_budget=3 + s % 10,
                    neg_density=0.9, shape="MONOTONE")
        )
        assert all(g.kind != NOT for g in c.gates)
        assert is_monotone(truth_table(c))


def test_formula_leaf_budget_is_exact():
    for s in range(20):
        L = 2 + s % 9
        f = generate(GenSpec(seed=s, num_vars=4, size_budget=L, shape="FORMULA"))
        assert f.leaves() == L


def test_readonce_budget_infeasible():
    with pytest.raises(BudgetInfeasible):
        generate(GenSpec(seed=0, num_vars=3, size_budget=4, shape="READONCE_LEAFNEG"))


def test_nonskew_formulas_have_no_half_leaf_gates():
    for s in range(30):
        f = generate_nonskew(seed=s, num_vars=3 + s % 5, leaf_budget=3 + s % 10)
        assert all(g.kind != NOT for g in f.gates)
        for g in f.gates:
            if g.kind == INPUT:
                continue
            leaf_kids = sum(1 for c in g.children if f.gates[c].kind == INPUT)
            assert leaf_kids in (0, len(g.children))
        want = max(2, (3 + s % 10) + (3 + s % 10) % 2)
        assert f.leaves() == want


def test_fixture_parity_dnf_computes_parity():
    c = fixture("parity3_dnf")
    want = TruthTable.from_callable(3, lambda x: (x[0] + x[1] + x[2]) % 2)
    assert truth_table(c) == want


def test_fixture_trees():
    assert truth_table(fixture("and_tree(4)")).bits == 1 << 15
    assert truth_table(fixture("or_tree(3)")).bits == 0b11111110


def test_fixture_addr_is_a_multiplexer():
    c = fixture("addr(2)")
    assert c.num_vars == 6
    want = TruthTable.from_callable(6, lambda x: x[2 + x[0] + 2 * x[1]])
    assert truth_table(c) == want


def test_fixture_cascade_taps():
    for j in range(4):
        c = fixture(f"cascade_tap(2,{j})")
        assert truth_table(c).bits == 1 << j


def test_unknown_fixtures():
    for bad in [
        "nope",
        "parity1_dnf",
        "and_tree(1)",
        "or_tree(0)",
        "addr(0)",
        "cascade_tap(2,4)",
        "cascade_tap(0,0)",
    ]:
        with pytest.raises(UnknownFixture):
            fixture(bad)


def test_oversized_fixtures_are_priced_before_building():
    # 2^29 ANDs, 2^25 gates twice, 4e6 gates, and an exponent too large to build
    for big in [
        "parity30_dnf",
        "addr(24)",
        "cascade_tap(24,0)",
        "and_tree(2000000)",
        "parity99999999999_dnf",
    ]:
        with pytest.raises(CapExceeded):
            fixture(big)


def test_dtree_shape_respects_depth_budget():
    for s in range(20):
        t = generate(GenSpec(seed=s, num_vars=5, size_budget=3, shape="DTREE"))
        assert t.depth() <= 3

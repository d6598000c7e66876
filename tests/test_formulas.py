import hashlib

import numpy as np
import pytest

from circuit_energy import (
    AND,
    FANIN2,
    INPUT,
    OR,
    NonLeafNegation,
    NOT,
    NotReadOnce,
    RootNotAllowed,
    ToolkitError,
    UNBOUNDED,
    UnknownGateRef,
    decompose_gk,
    energy_exhaustive,
    equivalent,
    evaluate,
    formula_from_tree,
    formula_stats,
    nonskew_energy_estimate,
    readonce_leafneg_energy,
    restriction_energy_check,
)
from circuit_energy.corpus import GenSpec, generate, generate_nonskew
from circuit_energy.ir import (
    const_formula,
    replace_subformula,
    structural_stats,
    substitute_leaf,
)
from circuit_energy.textio import serialize_netlist
from sweep_ref import energies


def F(tree, n):
    return formula_from_tree(tree, n, FANIN2)


AND_OR = F(("or", [("and", [("var", 0), ("var", 1)]), ("var", 2)]), 3)


# --------------------------------------------------------------------------
# restriction stability


def test_restriction_at_the_and_gate():
    rep = restriction_energy_check(AND_OR, 2, 0)  # gate 2 is the AND
    assert rep.ec == 2 and rep.depth == 2
    assert rep.ec_restricted == 1
    assert rep.holds
    # the restricted formula computes x2
    assert energy_exhaustive(rep.restricted).ec == 1


def test_restriction_refuses_the_root():
    with pytest.raises(RootNotAllowed):
        restriction_energy_check(AND_OR, AND_OR.output, 1)


@pytest.mark.parametrize("gate_id", [-1, len(AND_OR.gates)])
def test_restriction_refuses_a_missing_gate(gate_id):
    with pytest.raises(UnknownGateRef):
        restriction_energy_check(AND_OR, gate_id, 0)


def test_restriction_holds_across_corpus():
    for s in range(40):
        f = generate(
            GenSpec(seed=s, num_vars=2 + s % 4, size_budget=3 + s % 9,
                    neg_density=0.3, shape="FORMULA")
        )
        for gid, g in enumerate(f.gates):
            if gid == f.output or g.kind == INPUT:
                continue
            for bit in (0, 1):
                assert restriction_energy_check(f, gid, bit).holds


# --------------------------------------------------------------------------
# block decomposition


def test_decomposition_of_single_negation():
    f = F(("or", [("not", ("var", 0)), ("var", 1)]), 2)
    res = decompose_gk(f)
    assert res.blocks == ((0, 2), (3, 5), (6, 6))
    assert res.skeleton_gates == (7, 8, 9)
    assert res.block_count == 3
    assert equivalent(res.f_prime, f)
    assert energy_exhaustive(res.f_prime).ec == 5


def test_decomposition_splits_a_context_and_a_two_sided_root():
    # AND(x2, OR(NOT x0, NOT x1)): the negations meet at the OR, below the
    # root, so the context AND(x2, z) is split out at z = 0 and z = 1; the OR
    # then has two negated children and stays in the skeleton.
    f = F(("and", [("var", 2), ("or", [("not", ("var", 0)), ("not", ("var", 1))])]), 3)
    res = decompose_gk(f)
    assert res.blocks == ((0, 2), (3, 5), (6, 6), (8, 8))
    assert res.skeleton_gates == (7, 9, 10, 11, 12)
    assert res.block_count == 4
    assert res.f_prime.fanin_mode == UNBOUNDED
    assert serialize_netlist(res.f_prime) == "\n".join([
        "INPUT x2",
        "g1 = CONST 0",
        "g2 = AND g0 g1",
        "INPUT x2",
        "g4 = CONST 1",
        "g5 = AND g3 g4",
        "INPUT x0",
        "g7 = NOT g6",
        "INPUT x1",
        "g9 = NOT g8",
        "g10 = OR g7 g9",
        "g11 = AND g5 g10",
        "g12 = OR g2 g11",
        "OUTPUT g12",
        "",
    ])
    assert equivalent(res.f_prime, f)


def test_decomposition_of_a_deep_formula():
    # NOT(AND(NOT(AND(... x0 ...), x1), x2)...): 3 000 levels, far above
    # the recursion limit, which a recursive decomposition would hit
    t = ("var", 0)
    for i in range(1, 1501):
        t = ("not", ("and", [t, ("var", i % 8)]))
    f = F(t, 8)
    res = decompose_gk(f)
    assert res.block_count <= 5 * structural_stats(f).negs - 2
    assert equivalent(res.f_prime, f)


def test_decomposition_invariants_on_corpus():
    checked = 0
    for s in range(120):
        f = generate(
            GenSpec(seed=s, num_vars=2 + s % 5, size_budget=4 + s % 12,
                    neg_density=0.3, shape="FORMULA")
        )
        negs = structural_stats(f).negs
        if not 1 <= negs <= 4:
            continue
        checked += 1
        res = decompose_gk(f)
        assert equivalent(res.f_prime, f)
        assert res.f_prime.leaves() <= 2 * f.leaves()
        assert res.block_count <= 5 * negs - 2
        covered = set()
        for start, end in res.blocks:
            for gid in range(start, end + 1):
                assert res.f_prime.gates[gid].kind != NOT
                covered.add(gid)
        # every input leaf lives inside some block
        for gid, g in enumerate(res.f_prime.gates):
            if g.kind == INPUT:
                assert gid in covered
        st = structural_stats(f)
        bound = (5 * negs - 2) * (energy_exhaustive(f).ec + st.depth + 1)
        assert energy_exhaustive(res.f_prime).ec <= bound
    assert checked >= 30


def test_decomposition_of_negation_free_formula_is_one_block():
    f = F(("and", [("var", 0), ("or", [("var", 1), ("var", 2)])]), 3)
    res = decompose_gk(f)
    assert res.block_count == 1
    assert res.skeleton_gates == ()
    assert equivalent(res.f_prime, f)


def test_formula_surgery_is_pinned_byte_for_byte():
    # 2 000 seeded FORMULA gate lists with their decompositions (f', blocks,
    # skeleton), a restriction and a leaf substitution at seeded cuts, then
    # 300 READONCE_LEAFNEG formulas with their decompositions and 300 NONSKEW
    # formulas: pins the gate order of every formula builder and copy
    h = hashlib.sha256()

    def pin(f):
        h.update(serialize_netlist(f).encode())

    def pin_decomposition(f):
        res = decompose_gk(f)
        pin(res.f_prime)
        h.update(repr((res.blocks, res.skeleton_gates, res.block_count)).encode())

    sub = F(("or", [("var", 2), ("not", ("var", 0))]), 3)
    cuts = 0
    for s in range(2000):
        f = generate(GenSpec(seed=s, num_vars=1 + s % 8, size_budget=1 + s % 24,
                             neg_density=(s % 5) / 8, shape="FORMULA"))
        pin(f)
        pin_decomposition(f)
        cut = (s * 7919) % len(f.gates)
        if cut != f.output:
            pin(replace_subformula(f, cut, const_formula(s % 2)))
            cuts += 1
        leaves = [gid for gid, g in enumerate(f.gates) if g.kind == INPUT]
        pin(substitute_leaf(f, leaves[s % len(leaves)], sub))
    for s in range(300):
        n = 1 + s % 12
        f = generate(GenSpec(seed=s, num_vars=n, size_budget=1 + s % n,
                             neg_density=(s % 3) / 4, shape="READONCE_LEAFNEG"))
        pin(f)
        pin_decomposition(f)
        pin(generate_nonskew(s, 1 + s % 10, 1 + s % 30))
    assert cuts == 1760
    assert h.hexdigest() == "bb9934ed272d3a8008533bb6573df5c6c90fee642e1675c7133747ed2e5a242c"


# --------------------------------------------------------------------------
# read-once, negations at the leaves


def test_readonce_energy_is_leaves_minus_one():
    rep = readonce_leafneg_energy(F(("and", [("var", 0), ("not", ("var", 1))]), 2))
    assert rep.ec == 1 and rep.leaf_count == 2 and rep.equal
    assert rep.witness_input == (1, 0)

    rep = readonce_leafneg_energy(
        F(
            (
                "and",
                [
                    ("or", [("var", 0), ("var", 1)]),
                    ("or", [("not", ("var", 2)), ("var", 3)]),
                ],
            ),
            4,
        )
    )
    assert rep.ec == 3 and rep.leaf_count == 4 and rep.equal


def test_readonce_single_literal_spends_nothing():
    assert readonce_leafneg_energy(F(("var", 0), 1)).ec == 0
    assert readonce_leafneg_energy(F(("not", ("var", 0)), 1)).ec == 0
    assert readonce_leafneg_energy(F(("not", ("var", 0)), 1)).equal


def test_readonce_rejections():
    with pytest.raises(NotReadOnce):
        readonce_leafneg_energy(F(("and", [("var", 0), ("var", 0)]), 1))
    with pytest.raises(NonLeafNegation):
        readonce_leafneg_energy(F(("not", ("and", [("var", 0), ("var", 1)])), 2))


def test_readonce_on_generated_instances():
    for s in range(50):
        L = 2 + s % 12
        f = generate(
            GenSpec(seed=s, num_vars=L, size_budget=L, neg_density=0.4,
                    shape="READONCE_LEAFNEG")
        )
        rep = readonce_leafneg_energy(f)
        assert rep.equal, (s, rep)


@pytest.mark.parametrize("n", [1, 2, 5, 9])
def test_readonce_matches_evaluate_on_every_input(n):
    f = generate(GenSpec(seed=n, num_vars=n, size_budget=n, neg_density=0.4,
                         shape="READONCE_LEAFNEG"))
    inputs = [tuple((j >> i) & 1 for i in range(n)) for j in range(1 << n)]
    binary = [
        sum(v for g, v in zip(f.gates, evaluate(f, x).gate_values)
            if g.kind in (AND, OR))
        for x in inputs
    ]
    rep = readonce_leafneg_energy(f)
    assert rep.ec == max(binary)
    assert rep.witness_input == inputs[binary.index(rep.ec)]


# --------------------------------------------------------------------------
# skew-free mean energy


def test_nonskew_counts_bottom_gates_and_matches_exact_mean():
    f = F(
        (
            "and",
            [("or", [("var", 0), ("var", 1)]), ("or", [("var", 2), ("var", 3)])],
        ),
        4,
    )
    st = nonskew_energy_estimate(f, samples=2000, seed=1)
    assert st.t == 2
    assert st.lower_envelope == 0.5
    assert st.exact_energy_total == 33  # 12 + 12 firings for the ORs, 9 for the AND
    assert st.exact_mean == 33 / 16
    assert st.exact_square_total == 6 * 1 + 9 * 9  # 6 inputs fire one OR, 9 all three
    assert st.exact_mean >= st.lower_envelope
    assert abs(st.empirical_mean_energy - st.exact_mean) < 0.15


def test_nonskew_envelope_on_generated_formulas():
    for s in range(40):
        f = generate_nonskew(seed=s, num_vars=2 + s % 6, leaf_budget=4 + 2 * (s % 7))
        st = nonskew_energy_estimate(f, samples=500, seed=s)
        assert st.exact_mean is not None
        assert st.exact_mean >= st.lower_envelope


@pytest.mark.parametrize("n", range(13, 18))
def test_nonskew_planes_match_evaluate(n):
    f = generate_nonskew(seed=n, num_vars=n, leaf_budget=2 * n)
    st = nonskew_energy_estimate(f, samples=200, seed=n)
    # the same draws, each input evaluated on its own
    idx = np.random.default_rng(n).integers(0, 1 << n, size=200, dtype=np.uint64)
    drawn = [evaluate(f, tuple((int(j) >> i) & 1 for i in range(n))).energy for j in idx]
    assert st.empirical_mean_energy == float(np.array(drawn, dtype=np.uint32).mean())
    table = energies(f).astype(np.uint64)
    assert st.exact_energy_total == int(table.sum())
    assert st.exact_mean == int(table.sum()) / (1 << n)
    assert st.exact_square_total == int((table * table).sum())


@pytest.mark.parametrize("samples", [0, -3])
def test_nonskew_needs_a_sample(samples):
    f = generate_nonskew(seed=1, num_vars=4, leaf_budget=6)
    with pytest.raises(ToolkitError, match="samples"):
        nonskew_energy_estimate(f, samples=samples)


# --------------------------------------------------------------------------
# headline stats


def test_formula_stats():
    st = formula_stats(AND_OR)
    assert (st.leaves, st.size, st.depth, st.negs) == (3, 2, 2, 0)
    assert st.ec == 2
    assert st.argmax_input in ((1, 1, 0), (1, 1, 1))

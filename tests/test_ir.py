import hashlib

import pytest

from circuit_energy import (
    AND,
    CONST,
    FANIN2,
    INPUT,
    NOT,
    OR,
    UNBOUNDED,
    ArityViolation,
    Circuit,
    CycleOrForwardRef,
    DecisionTree,
    Formula,
    Gate,
    NotAFormula,
    ParseError,
    UnknownGateRef,
    VarOutOfRange,
    and_gate,
    as_formula,
    bounded,
    dt_depth_of,
    const_gate,
    formula_from_tree,
    input_gate,
    not_gate,
    or_gate,
    restrict,
    structural_stats,
    substitute_leaf,
    truth_table,
)
from circuit_energy.corpus import CIRCUIT, FORMULA, MONOTONE, GenSpec, fixture, generate
from circuit_energy.ir import fold, forced


def mk(gates, out, n=2, mode=UNBOUNDED):
    return Circuit(n, gates, out, mode)


def test_gate_constructors():
    assert input_gate(3) == Gate(INPUT, (), 3)
    assert not_gate(1) == Gate(NOT, (1,))
    assert and_gate(0, 1) == Gate(AND, (0, 1))
    assert or_gate(0, 1, 2) == Gate(OR, (0, 1, 2))


def test_forward_reference_rejected():
    with pytest.raises(CycleOrForwardRef):
        mk([input_gate(0), not_gate(2), not_gate(1)], 2, n=1)


def test_self_reference_rejected():
    with pytest.raises(CycleOrForwardRef):
        mk([input_gate(0), Gate(NOT, (1,))], 1, n=1)


def test_unknown_output_rejected():
    with pytest.raises(UnknownGateRef):
        mk([input_gate(0)], 5, n=1)


def test_arity_enforced_per_kind():
    with pytest.raises(ArityViolation):
        mk([input_gate(0), Gate(NOT, ())], 1, n=1)
    with pytest.raises(ArityViolation):
        mk([input_gate(0), Gate(AND, (0,))], 1, n=1)
    with pytest.raises(ArityViolation):
        mk([input_gate(0), input_gate(1), Gate(CONST, (0, 1), 1)], 2)


def test_fanin_cap_enforced():
    gates = [input_gate(0), input_gate(1), input_gate(2), Gate(AND, (0, 1, 2))]
    with pytest.raises(ArityViolation):
        Circuit(3, gates, 3, FANIN2)
    assert Circuit(3, gates, 3, bounded(3)).max_fanin() == 3


def _max_fanin_by_kind(c):
    """The kind-by-kind definition: AND/OR fan-in, 1 for a NOT, else 0."""
    best = 0
    for g in c.gates:
        if g.kind in (AND, OR):
            best = max(best, len(g.children))
        elif g.kind == NOT:
            best = max(best, 1)
    return best


def test_max_fanin_matches_the_kind_by_kind_definition():
    from circuit_energy.corpus import DTREE, SHAPES, GenSpec, generate
    from circuit_energy.synth import dt_to_circuit, fanin2_reduce

    cases = [fixture(name) for name in (
        "parity3_dnf", "and_tree(5)", "or_tree(2)", "addr(2)", "cascade_tap(3,5)")]
    cases += [mk([input_gate(0)], 0, n=1), mk([const_gate(1)], 0, n=0),
              mk([input_gate(0), not_gate(0)], 1, n=1)]
    cases += [
        generate(GenSpec(seed=s, num_vars=6, size_budget=6, neg_density=0.3, shape=shape,
                         fanin_mode=mode))
        for s in range(8) for shape in SHAPES if shape != DTREE for mode in (FANIN2, UNBOUNDED)
    ]
    for s in range(8):
        res = dt_to_circuit(generate(GenSpec(seed=s, num_vars=8, size_budget=6, shape=DTREE)))
        cases += [res.circuit, fanin2_reduce(res)]
    values = {c.max_fanin() for c in cases}
    assert {0, 1, 2}.issubset(values) and max(values) > 2
    for c in cases:
        assert c.max_fanin() == _max_fanin_by_kind(c), c


def test_fanin_parameter_is_the_mode_limit_or_the_actual_fanin():
    gates = [input_gate(0), input_gate(1), input_gate(2), Gate(AND, (0, 1, 2))]
    assert Circuit(3, gates, 3, bounded(5)).fanin_parameter() == 5
    assert Circuit(3, gates, 3, UNBOUNDED).fanin_parameter() == 3
    assert Circuit(2, gates[:2] + [and_gate(0, 1)], 2, FANIN2).fanin_parameter() == 2
    # an UNBOUNDED circuit of NOTs alone still counts as fan-in 2
    assert Circuit(1, [input_gate(0), not_gate(0)], 1, UNBOUNDED).fanin_parameter() == 2


def test_a_circuit_may_repeat_a_variable():
    # both INPUT gates read x0; gate 0 feeds two gates, so it is no formula
    c = mk([input_gate(0), input_gate(0), and_gate(0, 1), or_gate(0, 2)], 3, n=1)
    assert truth_table(c).bits == 0b10
    with pytest.raises(NotAFormula):
        as_formula(c)


def test_var_out_of_range():
    with pytest.raises(VarOutOfRange):
        mk([input_gate(2)], 0, n=2)


def test_formula_requires_tree_shape():
    # the same input feeding two gates is fine for circuits, not formulas
    gates = [input_gate(0), not_gate(0), not_gate(1), and_gate(1, 2)]
    with pytest.raises(NotAFormula):
        Formula(1, gates, 3, UNBOUNDED)
    Circuit(1, gates, 3, UNBOUNDED)


def test_formula_allows_repeated_variables():
    gates = [input_gate(0), input_gate(0), and_gate(0, 1)]
    f = Formula(1, gates, 2, UNBOUNDED)
    assert f.leaves() == 2


def test_as_formula_roundtrip():
    c = fixture("and_tree(4)")
    f = as_formula(c)
    assert truth_table(f).bits == truth_table(c).bits


def test_structural_stats_counts_ops_only():
    gates = [input_gate(0), input_gate(1), Gate(CONST, (), 1), not_gate(0), and_gate(3, 1)]
    st = structural_stats(mk(gates, 4))
    assert st.size == 2  # NOT + AND; inputs and constants are free
    assert st.depth == 2
    assert st.negs == 1


def test_restrict_agrees_with_cofactor():
    par3 = fixture("parity3_dnf")
    r = restrict(par3, {2: 1})
    assert r.num_vars == par3.num_vars
    assert truth_table(r) == truth_table(par3).cofactor(2, 1)
    # spot value: parity(x0, x1, 1) at x0=x1=0 is 1
    assert truth_table(r).value_at((0, 0, 0)) == 1
    assert truth_table(r).value_at((1, 0, 0)) == 0


def test_restrict_to_constant_collapses():
    c = fixture("and_tree(3)")
    r = restrict(c, {0: 0})
    assert truth_table(r).bits == 0
    assert len(r.gates) < len(c.gates)


X0, X1, X2 = input_gate(0), input_gate(1), input_gate(2)
C0, C1 = const_gate(0), const_gate(1)


@pytest.mark.parametrize("n, gates, out, assignment, want, want_out", [
    (2, [X0, X1, and_gate(0, 1)], 2, {0: 0}, [C0], 0),
    (2, [X0, X1, and_gate(0, 1)], 2, {0: 1, 1: 1}, [C1], 0),
    (2, [X0, X1, or_gate(0, 1)], 2, {1: 1}, [C1], 0),
    (2, [X0, X1, or_gate(0, 1)], 2, {0: 0, 1: 0}, [C0], 0),
    (1, [X0, not_gate(0)], 1, {0: 1}, [C0], 0),
    (2, [X0, X1, and_gate(0, 1), not_gate(2)], 3, {0: 1},
     [C1, X1, and_gate(0, 1), not_gate(2)], 3),
    (1, [C1, X0, or_gate(0, 1)], 2, {}, [C1], 0),
    (1, [C0, X0, or_gate(0, 1)], 2, {}, [C0, X0, or_gate(0, 1)], 2),
    (2, [X0, X1, or_gate(0, 1)], 2, {0: 0}, [C0, X1, or_gate(0, 1)], 2),
    (3, [X0, X1, X2, and_gate(0, 1, 2)], 3, {1: 1}, [X0, C1, X2, and_gate(0, 1, 2)], 3),
    (3, [X0, X1, X2, and_gate(0, 1), or_gate(3, 2)], 4, {0: 0}, [X2, C0, or_gate(1, 0)], 2),
], ids=["and-forced-0", "and-all-1", "or-forced-1", "or-all-0", "not-over-forced",
        "not-over-free", "const-forcing", "const-free", "unassigned-input",
        "fanin3-keeps-children", "cone-stops-at-forced"])
def test_restrict_folds_each_rule(n, gates, out, assignment, want, want_out):
    r = restrict(Circuit(n, gates, out), assignment)
    assert (list(r.gates), r.output, r.num_vars, type(r)) == (want, want_out, n, Circuit)


def test_forced_stops_the_cone_at_a_forced_gate():
    # AND x0 x1 is forced to 0, so neither of its inputs is live; x2 is free
    c = Circuit(3, [X0, X1, X2, and_gate(0, 1), or_gate(3, 2), not_gate(2)], 4)
    assert forced(c, {0: 0}) == ([0, 2, 2, 0, 2, 2], [False, False, True, True, True, False])
    assert forced(c, {0: 1, 2: 1}) == ([3, 2, 3, 2, 3, 0], [False, False, False, False, True, False])


def test_restrict_refuses_a_variable_out_of_range():
    with pytest.raises(VarOutOfRange):
        restrict(Circuit(1, [X0], 0), {1: 0})


def test_restrict_is_pinned_byte_for_byte():
    # 600 seeded circuits, monotone circuits and formulas, each restricted by
    # nothing, by its first and by its last variable, and by its first two:
    # pins the folded gates, their order, the output id and the class
    h = hashlib.sha256()
    pairs = 0
    for s in range(600):
        n = 1 + s % 6
        c = generate(GenSpec(seed=s, num_vars=n, size_budget=2 + (s * 7) % 23,
                             neg_density=0.0 if s % 3 == 1 else 0.15 + (s % 4) / 8,
                             shape=(CIRCUIT, MONOTONE, FORMULA)[s % 3],
                             fanin_mode=(FANIN2, UNBOUNDED)[s // 5 % 2]))
        b, d = s % 2, s // 2 % 2
        for assignment in ({}, {0: b}, {n - 1: b}, {0: b, 1: d}):
            if max(assignment, default=0) < n:
                r = restrict(c, assignment)
                h.update(repr((type(r).__name__, r.gates, r.output)).encode())
                pairs += 1
    assert pairs == 2300
    assert h.hexdigest() == "f3357cc85e8c59703d560e1b11fa7958faeef43459dae543af290cda289cd09a"


def test_formula_from_tree_lays_out_post_order():
    tree = ("or", [("not", ("var", 0)), ("and", [("var", 1), ("const", 1)])])
    f = formula_from_tree(tree, 2)
    assert f.gates == (
        input_gate(0),
        not_gate(0),
        input_gate(1),
        const_gate(1),
        and_gate(2, 3),
        or_gate(1, 4),
    )
    assert f.output == 5
    f.validate()


def test_deep_formulas_build_and_copy():
    depth = 5000  # five times the default recursion limit
    t = ("var", 0)
    for i in range(depth):
        t = ("not", t) if i % 2 else ("or", [("var", 1), t])
    f = formula_from_tree(t, 2)
    assert len(f.gates) == 1 + depth + depth // 2 and f.output == len(f.gates) - 1
    leaf = f.gates.index(input_gate(0))
    assert substitute_leaf(f, leaf, formula_from_tree(("var", 0), 1)).gates == f.gates
    out = substitute_leaf(f, leaf, formula_from_tree(("and", [("var", 0), ("var", 0)]), 1))
    assert len(out.gates) == len(f.gates) + 2
    assert truth_table(out) == truth_table(f)  # x0 AND x0 is x0


def test_substitute_leaf():
    host = formula_from_tree(("and", [("var", 0), ("var", 1)]), 2)
    leaf = next(i for i, g in enumerate(host.gates) if g.kind == INPUT and g.arg == 1)
    rep = formula_from_tree(("or", [("var", 1), ("var", 2)]), 3)
    out = substitute_leaf(host, leaf, rep)
    assert truth_table(out) == truth_table(
        formula_from_tree(("and", [("var", 0), ("or", [("var", 1), ("var", 2)])]), 3)
    )


def test_decision_tree_validation():
    DecisionTree(2, (0, (1, 0, 1), 1))
    with pytest.raises(VarOutOfRange):
        DecisionTree(2, (0, (0, 0, 1), 1))  # repeated variable on a path
    with pytest.raises(VarOutOfRange):
        DecisionTree(1, (1, 0, 1))
    with pytest.raises(ParseError):
        DecisionTree(1, (0, 2, 1))  # leaf must be 0/1
    # a variable read in a finished branch is off the path of the next one
    DecisionTree(3, (0, (1, (2, 0, 1), 1), (2, (1, 0, 1), 0)))
    with pytest.raises(VarOutOfRange, match="x0 repeats"):
        DecisionTree(3, (0, (1, (2, 0, 1), 1), (2, (1, 0, (0, 0, 1)), 0)))


def test_decision_tree_validation_takes_deep_trees():
    root = 1
    for v in reversed(range(3000)):
        root = (v, root, 0)
    DecisionTree(3000, root)
    bad = (2999, 0, 1)
    for v in reversed(range(3000)):
        bad = (v, 0, bad)  # x2999 repeats at the bottom of the high path
    with pytest.raises(VarOutOfRange, match="x2999 repeats along a path"):
        DecisionTree(3000, bad)


def test_decision_tree_evaluate_and_depth():
    t = DecisionTree(2, (0, 0, (1, 0, 1)))
    assert [t.evaluate((a, b)) for a, b in [(0, 0), (1, 0), (0, 1), (1, 1)]] == [0, 0, 0, 1]
    assert t.depth() == 2
    assert dt_depth_of(t.root) == 2


def test_fold_expands_in_pre_order_and_joins_in_post_order():
    tree = ("a", [("b", [("d", [])]), ("c", [])])
    events = []

    def expand(t):
        events.append("expand " + t[0])
        return t[1]

    def join(t, values):
        events.append("join " + t[0])
        return t[0] + "(" + ",".join(values) + ")"

    assert fold(tree, expand, join) == "a(b(d()),c())"
    assert events == [
        "expand a", "expand b", "expand d", "join d", "join b",
        "expand c", "join c", "join a",
    ]


def test_deep_tree_depth_and_repr():
    # (x0 (x1 ... (x1199 0 1) ... 1) 1), above the default recursion limit
    root = (1199, 0, 1)
    for v in reversed(range(1199)):
        root = (v, root, 1)
    t = DecisionTree(1200, root)
    assert dt_depth_of(t.root) == t.depth() == 1200
    assert repr(t) == "DecisionTree(n=1200, depth=1200)"

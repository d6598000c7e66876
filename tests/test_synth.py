import hashlib

import pytest

from circuit_energy import (
    AND,
    CapExceeded,
    Circuit,
    DecisionTree,
    IncompatibleArity,
    INPUT,
    NOT,
    OR,
    TruthTable,
    VarOutOfRange,
    compile_truth_table,
    connector_merge,
    dt_to_circuit,
    energy_exhaustive,
    evaluate,
    fanin2_reduce,
    gate_masks,
    minterm_cascade,
    truth_table,
)
from circuit_energy.corpus import GenSpec, generate
from circuit_energy.ir import FANIN2, input_gate, not_gate, or_gate, structural_stats
from circuit_energy.textio import parse_netlist, serialize_netlist
from circuit_energy.verify import _all_reduced_trees, _dt_bits


def negs_of(c):
    return sum(1 for g in c.gates if g.kind == NOT)


# --------------------------------------------------------------------------
# cascade


def test_cascade_taps_are_minterms():
    mc = minterm_cascade(3)
    masks = gate_masks(mc.circuit)
    for j, tap in enumerate(mc.taps):
        assert masks[tap] == 1 << j


def test_cascade_energy_peak():
    rep = energy_exhaustive(minterm_cascade(2).circuit)
    assert rep.ec == 3
    assert rep.argmax_input == (0, 0)


def test_cascade_single_variable_costs_one():
    assert energy_exhaustive(minterm_cascade(1).circuit).ec == 1


def test_cached_cascade_keeps_no_swept_masks():
    first = minterm_cascade(5)
    energy_exhaustive(first.circuit)
    again = minterm_cascade(5)
    assert first.circuit.swept is not None and again.circuit.swept is None
    assert again.circuit.gates is first.circuit.gates and again.taps == first.taps


def test_cascade_rejects_bad_sizes():
    with pytest.raises(CapExceeded):
        minterm_cascade(0)
    with pytest.raises(CapExceeded):
        minterm_cascade(30)


# --------------------------------------------------------------------------
# truth-table compiler


def test_compile_xor_exact_energy():
    c = compile_truth_table(TruthTable(2, 0b0110))
    assert truth_table(c).bits == 0b0110
    assert energy_exhaustive(c).ec == 4


def test_compile_constants():
    for n, bits in [(0, 0), (0, 1), (2, 0), (2, 0b1111)]:
        c = compile_truth_table(TruthTable(n, bits))
        assert truth_table(c).padded(max(n, 1)).bits == TruthTable(n, bits).padded(max(n, 1)).bits


def test_compile_respects_cap():
    with pytest.raises(CapExceeded):
        compile_truth_table(TruthTable(13, 0), cap=12)


# --------------------------------------------------------------------------
# selector behaviour


def test_selector_fires_at_most_two_gates():
    # NOT(OR(AND(~x, f0), AND(x, f1))) with the feeders driven directly:
    # of the four fresh gates at most two fire for any (x, f0, f1)
    for x in (0, 1):
        for f0 in (0, 1):
            for f1 in (0, 1):
                a0 = (1 - x) & f0
                a1 = x & f1
                orr = a0 | a1
                sel = 1 - orr
                assert a0 + a1 + orr + sel <= 2


def test_connector_merge_semantics_and_negs():
    c0 = parse_netlist("INPUT x0\nINPUT x1\ng2 = NOT x0\nOUTPUT g2\n")
    c1 = parse_netlist("INPUT x0\nINPUT x1\ng2 = NOT x1\nOUTPUT g2\n")
    merged = connector_merge(c0, c1, 1)
    want = TruthTable.from_callable(2, lambda v: (1 - v[0]) if v[1] == 0 else (1 - v[1]))
    assert truth_table(merged) == want
    assert negs_of(merged) == 1 + max(negs_of(c0), negs_of(c1))


def test_connector_merge_rejects_mismatches():
    c0 = parse_netlist("INPUT x0\nOUTPUT x0\n")
    c1 = parse_netlist("INPUT x0\nINPUT x1\ng = AND x0 x1\nOUTPUT g\n")
    with pytest.raises(IncompatibleArity):
        connector_merge(c0, c1, 0)
    with pytest.raises(VarOutOfRange):
        connector_merge(c1, c1, 5)


# --------------------------------------------------------------------------
# decision-tree compiler


def tree_tt(n, root):
    return TruthTable.from_callable(n, DecisionTree(n, root).evaluate)


def check_compiled(root, n):
    tree = DecisionTree(n, root)
    d = tree.depth()
    res = dt_to_circuit(tree)
    c = res.circuit
    assert truth_table(c) == tree_tt(n, root)
    assert negs_of(c) <= d
    assert energy_exhaustive(c).ec <= 2 * d * d
    for g in c.gates:
        if g.kind == OR:
            assert len(g.children) == 2
            for ch in g.children:
                assert c.gates[ch].kind not in (INPUT, NOT)
        if g.kind == AND:
            assert len(g.children) <= d + 2
    return res


def test_compile_leaf_and_literal_trees():
    check_compiled(0, 2)
    check_compiled(1, 2)
    check_compiled((0, 0, 1), 2)  # plain literal
    check_compiled((0, 1, 0), 2)  # negated literal


def test_compile_both_sides_negated_literals():
    # depth 2 with two negated-literal branches: selector sharing keeps
    # the negation count at 2, not 3
    root = (0, (1, 1, 0), (2, 1, 0))
    res = check_compiled(root, 3)
    assert negs_of(res.circuit) <= 2


def test_compile_xor3():
    root = (0, (1, (2, 0, 1), (2, 1, 0)), (1, (2, 1, 0), (2, 0, 1)))
    check_compiled(root, 3)


def test_compile_tree_with_constant_subtrees():
    # (4, 0, 0) and (7, 0, 0) compile to CONST 0 legs, so the OR above them
    # holds no AND and its ~x_v must stay out of the circuit
    tree = generate(GenSpec(seed=232, num_vars=8, size_budget=6, shape="DTREE"))
    assert "(4, 0, 0)" in repr(tree.root) and "(7, 0, 0)" in repr(tree.root)
    res = check_compiled(tree.root, 8)
    assert len(res.circuit.gates) == 27
    assert negs_of(res.circuit) == 4
    assert len(fanin2_reduce(res).gates) == 34


# --------------------------------------------------------------------------
# fan-in-2 expansion


def test_fanin2_reduce_equivalence_and_width():
    root = (0, (1, (2, 0, 1), 1), (1, 1, (2, 1, 0)))
    res = dt_to_circuit(DecisionTree(3, root))
    c2 = fanin2_reduce(res)
    assert c2.max_fanin() <= 2
    assert truth_table(c2) == tree_tt(3, root)
    d = res.tree_depth
    assert energy_exhaustive(c2).ec <= 2 * d * d * (d + 1)


def test_fanin2_on_random_trees():
    for s in range(40):
        tree = generate(GenSpec(seed=s, num_vars=6, size_budget=4, shape="DTREE"))
        res = dt_to_circuit(tree)
        c2 = fanin2_reduce(res)
        assert c2.max_fanin() <= 2
        assert truth_table(c2) == tree_tt(6, tree.root)


def test_fanin2_reduce_prices_its_output_first(monkeypatch):
    import circuit_energy.synth as synth

    res = dt_to_circuit(DecisionTree(4, (0, (1, (2, 0, 1), (3, 1, 0)), (2, (3, 0, 1), 1))))
    size = len(fanin2_reduce(res).gates)
    assert size > len(res.circuit.gates)  # the tree has wide ANDs
    monkeypatch.setattr(synth, "GATE_BUDGET", size)
    assert len(fanin2_reduce(res).gates) == size
    monkeypatch.setattr(synth, "GATE_BUDGET", size - 1)
    with pytest.raises(CapExceeded, match=f"at least {size} gates"):
        fanin2_reduce(res)


def test_compiled_sizes_on_a_corpus_slice():
    # every 1009th tree of the exhaustive n=4 corpus plus 100 seeded n=8
    # trees: pins the gate and negation counts of both compilers
    trees = [
        (4, root)
        for k, root in enumerate(_all_reduced_trees(4, 3)[0])
        if k % 1009 == 0
    ]
    trees += [
        (8, generate(GenSpec(seed=s, num_vars=8, size_budget=6, shape="DTREE")).root)
        for s in range(100)
    ]
    gates = gates2 = negs = ec = ec2 = 0
    for n, root in trees:
        res = dt_to_circuit(DecisionTree(n, root))
        c2 = fanin2_reduce(res)
        gates += len(res.circuit.gates)
        gates2 += len(c2.gates)
        negs += negs_of(res.circuit)
        ec = max(ec, energy_exhaustive(res.circuit).ec)
        ec2 = max(ec2, energy_exhaustive(c2).ec)
    assert len(trees) == 462
    assert (gates, gates2, negs) == (10317, 15021, 1203)
    assert (ec, ec2) == (32, 73)


def test_compiled_netlists_are_pinned_byte_for_byte():
    # every 997th tree of the n=4 corpus, 40 seeded n=8-12 trees of depth
    # 6-10 and merges of both kinds: pins the gate order of both compilers
    # and the merge, so the layout and the fan-in-2 combs cannot drift
    corpus = [
        DecisionTree(4, root)
        for k, root in enumerate(_all_reduced_trees(4, 3)[0])
        if k % 997 == 0
    ]
    deep = [
        generate(GenSpec(seed=s, num_vars=8 + s % 5, size_budget=6 + s % 5, shape="DTREE"))
        for s in range(40)
    ]
    h = hashlib.sha256()
    reduced = []
    for tree in corpus + deep:
        res = dt_to_circuit(tree)
        c2 = fanin2_reduce(res)
        h.update(serialize_netlist(res.circuit).encode())
        h.update(serialize_netlist(c2).encode())
        reduced.append(c2)
    pairs = [(k, k + 1) for k in range(0, len(corpus) - 1, 3)]
    pairs += [(len(corpus) + s, len(corpus) + s + 5) for s in range(0, 35, 3)]
    for k, j in pairs:
        c0, c1 = reduced[k], reduced[j]
        h.update(serialize_netlist(connector_merge(c0, c1, k % c0.num_vars)).encode())
    assert (len(reduced), len(pairs)) == (406, 134)
    assert h.hexdigest() == "3c8f27cee3ceb4be4e065401e1ec38f7430ca0bbf861d6675e8b82f686b5e1cd"


def chain_tree(d, high):
    """(x0 (x1 ... (x{d-1} 0 1) ... high) high): a reduced tree of d levels."""
    root = (d - 1, 0, 1)
    for v in reversed(range(d - 1)):
        root = (v, root, high)
    return DecisionTree(d, root)


def test_deep_chain_tree_compiles_and_reduces():
    # 1 200 levels, above the default recursion limit.  Every AND gathers
    # the guards of the levels above it, so the fan-in-2 circuit has about
    # d^2/2 gates.
    d = 1200
    tree = chain_tree(d, 1)
    res = dt_to_circuit(tree)
    c2 = fanin2_reduce(res)
    assert res.tree_depth == d
    assert (len(res.circuit.gates), len(c2.gates)) == (5997, 725396)
    assert negs_of(res.circuit) <= d
    for ones in [(), (d - 1,), (600,)]:
        x = tuple(int(v in ones) for v in range(d))
        assert evaluate(c2, x).value == tree.evaluate(x)
    assert evaluate(res.circuit, (0,) * d).value == 0


def test_dt_bits_matches_the_compiled_circuit():
    memo = {}
    for s in range(30):
        tree = generate(GenSpec(seed=s, num_vars=6, size_budget=5, shape="DTREE"))
        bits = _dt_bits(tree.root, 6, memo)
        assert bits == truth_table(dt_to_circuit(tree).circuit).bits
        assert bits == _dt_bits(tree.root, 6, {})  # the memo changes nothing


def test_dt_bits_stores_only_the_branches_of_roots():
    # a root is joined without being stored, so a walk over the corpus
    # keeps only the subtrees its roots share
    roots = list(_all_reduced_trees(3, 2)[0])
    memo = {}
    for root in roots:
        want = TruthTable.from_callable(3, DecisionTree(3, root).evaluate).bits
        assert _dt_bits(root, 3, memo) == want
    branches = {b for t in roots if not isinstance(t, int) for b in t[1:]}
    assert set(memo) == {b for b in branches if not isinstance(b, int)}


def test_connector_merge_over_a_deep_side():
    # side 0 compiles a 1 200-level chain tree that is true only on x1199
    # alone; side 1 is x0 OR NOT x1
    d = 1200
    deep = fanin2_reduce(dt_to_circuit(chain_tree(d, 0)))
    gates = [input_gate(v) for v in range(d)] + [not_gate(1), or_gate(0, d)]
    wide = Circuit(d, gates, d + 1, FANIN2)
    merged = connector_merge(deep, wide, 600)
    assert negs_of(merged) == 1 + max(negs_of(deep), negs_of(wide))
    for ones in [(), (d - 1,), (600,), (600, 1), (600, d - 1), (0, d - 1)]:
        x = tuple(int(v in ones) for v in range(d))
        side = wide if x[600] else deep
        assert evaluate(merged, x).value == evaluate(side, x).value

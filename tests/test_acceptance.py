"""Headline checks, one per claimed inequality, at the full sweep level.

Each test drives one entry of the verification suite and prints its
``[PASS]/[FAIL]`` line (run ``pytest -s tests/test_acceptance.py`` to see them
as they finish, or use ``cenergy verify-all``).  A test fails if the sweep
found any violation or blew its time budget.  The two tree checks read one
shared walk of the tree corpus, so each tree is compiled once.
"""

import pytest

from circuit_energy.verify import FULL, run_all


@pytest.fixture(scope="module")
def tree_checks():
    report = run_all(FULL, only=["tree-compile", "tree-fanin2"])
    return {res.check_id: res for res in report.checks}


def run(check_id: str, budget_s: float, walked: dict | None = None):
    """Run one check, or read its result from a shared walk that already ran."""
    res = walked[check_id] if walked else run_all(FULL, only=[check_id]).checks[0]
    print(res.line())
    assert res.violations == 0, f"{res.line()}\n" + "\n".join(res.failures)
    assert res.seconds < budget_s, (
        f"{check_id} took {res.seconds:.1f}s, budget {budget_s:.0f}s"
    )
    return res


def test_compiler_covers_every_small_function_within_energy_budget():
    # every 3- and 4-variable function: compiled circuit equivalent, EC <= 3n-1
    run("compile-all-functions", 120)


def test_cascade_taps_fire_uniquely_with_linear_energy():
    # n = 1..10: exactly one tap per input, EC <= 2n-1, n=1 exactly 1
    run("cascade-taps", 30)


def test_tree_compiler_invariants_hold_on_all_small_trees(tree_checks):
    # all reduced depth<=3 trees on 4 vars + 500 seeded depth<=6 trees on 8:
    # equivalence, negs <= d, EC <= 2d^2, OR fan-in 2, AND fan-in <= d+2,
    # no OR fed by a literal
    run("tree-compile", 300, tree_checks)


def test_fanin2_expansion_keeps_equivalence_and_energy(tree_checks):
    # the same corpus through the comb expansion: fan-in <= 2, EC <= 2d^2(d+1)
    run("tree-fanin2", 300, tree_checks)


def test_energy_dominates_positive_sensitivity_over_fanin():
    # 1000 seeded fan-in-2 circuits: 3*EC >= psens, plus EC >= n/3 on big ANDs
    run("psens-floor", 180)


def test_every_sensitive_index_has_an_all_firing_path():
    # each (circuit, input, positively sensitive index) triple yields a
    # verified chain of firing gates up to the output or a negation feeder
    run("positive-paths", 180)


def test_firing_patterns_bound_decision_tree_depth():
    # extracted tree computes f, depth <= maxFanin * patterns,
    # patterns <= size^EC + 1, and the exact DT(f) oracle stays under budget
    run("pattern-tree", 300)


def test_protocol_bits_bounded_by_energy():
    # monotone pairs (plain and negation-rewritten circuits): the game always
    # lands on a separating index with aliceBits <= EC(C, a') * addrBits
    run("kw-bits", 300)


def test_formula_decomposition_bounds():
    # restriction stability, block decomposition equivalence, L' <= 2L,
    # T <= 5negs-2, both energy envelopes, and the leaf-count floors
    run("formula-blocks", 600)


def test_readonce_formulas_spend_exactly_leaves_minus_one():
    run("readonce-exact", 60)


def test_monotone_circuits_peak_at_all_ones():
    # a NOT-free circuit fires every gate on 1^n: EC = size, attained there
    run("monotone-peak", 60)


def test_parity_dnf_energy():
    # the shared-negation DNF computes parity with EC <= n+2 for n = 2..4
    run("parity-dnf", 10)


def test_skewfree_mean_energy_floor():
    # mean energy >= t/4 exactly; the Monte Carlo estimate agrees to 3 SE
    run("nonskew-floor", 120)


def test_connector_merge_shares_negations():
    # seeded fan-in-2 and fan-in-3 side pairs on n = 2..8, merged on every
    # variable: the merged function, and negs = 1 + max(negs0, negs1)
    run("connector-merge", 60)

"""Headline checks, one per claimed inequality, at the full sweep level.

Each test drives one entry of the verification suite and prints its
``[PASS]/[FAIL]`` line (run ``pytest -s tests/test_acceptance.py`` to see them
as they finish, or use ``cenergy verify-all``).  A test fails if the sweep
found any violation or blew its time budget, or if the check's instance count
or the SHA-256 of its ``verify-all --json`` entry without ``seconds`` moved:
the same digest rule as the smoke pin, here for every full-level corpus.  The
two tree checks read one shared walk of the tree corpus, so each tree is
compiled once.
"""

import hashlib
import json
from dataclasses import asdict

import pytest

from circuit_energy.verify import FULL, run_all


@pytest.fixture(scope="module")
def tree_checks():
    report = run_all(FULL, only=["tree-compile", "tree-fanin2"])
    return {res.check_id: res for res in report.checks}


def run(check_id: str, budget_s: float, instances: int, digest: str,
        walked: dict | None = None):
    """Run one check, or read its result from a shared walk that already ran."""
    res = walked[check_id] if walked else run_all(FULL, only=[check_id]).checks[0]
    print(res.line())
    assert res.violations == 0, f"{res.line()}\n" + "\n".join(res.failures)
    assert res.seconds < budget_s, (
        f"{check_id} took {res.seconds:.1f}s, budget {budget_s:.0f}s"
    )
    assert res.instances_tried == instances
    entry = asdict(res)
    del entry["seconds"]
    assert hashlib.sha256(json.dumps(entry, sort_keys=True).encode()).hexdigest() == digest, entry
    return res


def test_compiler_covers_every_small_function_within_energy_budget():
    # every 3- and 4-variable function: compiled circuit equivalent, EC <= 3n-1
    run("compile-all-functions", 120, 65_792,
        "b22c3aca984b2b46200e216bc103b102d5a23430457fde1aca973eda6e102693")


def test_cascade_taps_fire_uniquely_with_linear_energy():
    # n = 1..10: exactly one tap per input, EC <= 2n-1, n=1 exactly 1
    run("cascade-taps", 30, 10,
        "72f562eedb91e4b34f7693d1a0c5ff3b82139968821fa66ad1003a7a151c894c")


def test_tree_compiler_invariants_hold_on_all_small_trees(tree_checks):
    # all reduced depth<=3 trees on 4 vars + 500 seeded depth<=6 trees on 8:
    # equivalence, negs <= d, EC <= 2d^2, OR fan-in 2, AND fan-in <= d+2,
    # no OR fed by a literal
    run("tree-compile", 300, 365_318,
        "97ab79fa0e3d68a8e035c1151fdde831c9cda02a480707aba146ce11f96903d5", tree_checks)


def test_fanin2_expansion_keeps_equivalence_and_energy(tree_checks):
    # the same corpus through the comb expansion: fan-in <= 2, EC <= 2d^2(d+1)
    run("tree-fanin2", 300, 365_318,
        "4ac7c8d2267d46a37e31b84794d6cb6119e4c063fb9fec2b8a3034e742ee80ca", tree_checks)


def test_energy_dominates_positive_sensitivity_over_fanin():
    # 1000 seeded fan-in-2 circuits: 3*EC >= psens, plus EC >= n/3 on big ANDs
    run("psens-floor", 180, 1_008,
        "15e47a4b05d06268c8aae526ebae8569051d9f19ea321efc1f1f34c3e355ff05")


def test_every_sensitive_index_has_an_all_firing_path():
    # each (circuit, input, positively sensitive index) triple yields a
    # verified chain of firing gates up to the output or a negation feeder
    run("positive-paths", 180, 34_203,
        "9785dc0027d854122a5d24481c97f05e186b80baa2e30f6bb8f70c886042464e")


def test_firing_patterns_bound_decision_tree_depth():
    # extracted tree computes f, depth <= maxFanin * patterns,
    # patterns <= size^EC + 1, and the exact DT(f) oracle stays under budget
    run("pattern-tree", 300, 500,
        "93eb873c30e35edde43915fa6b943b58060e20f17f2b9c8f98c04827381e9fc5")


def test_protocol_bits_bounded_by_energy():
    # monotone pairs (plain and negation-rewritten circuits): the game always
    # lands on a separating index with aliceBits <= EC(C, a') * addrBits
    run("kw-bits", 300, 20_000,
        "b5d2df02b7e69eca515f3bb4b473e9766accb769d83bbfaa0feb740dc05b0407")


def test_formula_decomposition_bounds():
    # restriction stability, block decomposition equivalence, L' <= 2L,
    # T <= 5negs-2, both energy envelopes, and the leaf-count floors
    run("formula-blocks", 600, 500,
        "608ddab3cdf5742c9cba03c6c7f2b14d643f5bee87755f905afbcaaf68f068b5")


def test_readonce_formulas_spend_exactly_leaves_minus_one():
    run("readonce-exact", 60, 200,
        "893cf38c5f03de981bb5ee0fa0699a52e181e52c5fa764c1b9dfd0e15b6c738a")


def test_monotone_circuits_peak_at_all_ones():
    # a NOT-free circuit fires every gate on 1^n: EC = size, attained there
    run("monotone-peak", 60, 200,
        "daa6c50962ca363ebbc668f8dbf44c6f3123e17c2c2c13fc23838a4f9681483c")


def test_parity_dnf_energy():
    # the shared-negation DNF computes parity with EC <= n+2 for n = 2..4
    run("parity-dnf", 10, 3,
        "272c04345c2dd55180d3d593dd82c321e647010c6f4f5c99e2aeeb4c7b1fe282")


def test_skewfree_mean_energy_floor():
    # mean energy >= t/4 exactly; the Monte Carlo estimate agrees to 3 SE
    run("nonskew-floor", 120, 100,
        "ab8fe90b3732498f123e60a38c76048bd1240cf253c1633ea19e068f35398e27")


def test_connector_merge_shares_negations():
    # seeded fan-in-2 and fan-in-3 side pairs on n = 2..8, merged on every
    # variable: the merged function, and negs = 1 + max(negs0, negs1)
    run("connector-merge", 60, 994,
        "0e18a5c5abbc31a748407632452e603ebf749f526a6a76b9f097addd921e548b")

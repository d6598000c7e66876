"""Tests of the benchmark itself, on tiny workloads.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

assert run.load_package() is None
import workloads  # noqa: E402
from circuit_energy import formulas, semantics, synth  # noqa: E402
from circuit_energy.verify import _all_reduced_trees  # noqa: E402


def tiny(workload: str, trace: bool) -> dict:
    return run.measure(workload, 7, 0.0, trace, tiny=True)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_printed_with_its_unit(workload, trace):
    record = tiny(workload, trace)
    lines = run.render(record)
    units = run.per_layer_units() if trace else run.END_TO_END
    for name, unit in units.items():
        assert any(line.startswith(f"{name} ") and f" {unit}" in line for line in lines), name
    assert any(line.startswith("failed_frac 0 ratio") for line in lines)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: m["unit"] for k, m in result["metrics"].items()} == units


def test_benchmark_json_lists_the_printed_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()


def test_a_wrong_energy_report_counts_as_a_failed_instance(monkeypatch):
    real = semantics.energy_exhaustive

    def off_by_one(circuit, cap=None):
        rep = real(circuit, cap)
        return semantics.EnergyReport(rep.ec + 1, rep.argmax_input)

    monkeypatch.setattr(semantics, "energy_exhaustive", off_by_one)
    record = tiny("dtree-compile", False)
    result = record["result"]
    assert not result["correct"]
    assert result["attempted"] == record["cycle_instances"]
    assert 0 < result["failed"] <= result["attempted"]
    assert record["failed_frac"] == result["failed"] / result["attempted"]
    assert any("energy at argmax" in f for f in record["failures"])


def test_a_wrong_sample_mean_counts_as_a_failed_instance(monkeypatch):
    real = formulas.nonskew_energy_estimate

    def every_gate_fires(formula, samples=1000, seed=0):
        stats = real(formula, samples, seed)
        stats.empirical_mean_energy = float(formula.leaves() - 1)
        return stats

    monkeypatch.setattr(formulas, "nonskew_energy_estimate", every_gate_fires)
    record = tiny("wide-sweep", False)
    assert not record["result"]["correct"]
    assert any("from the exact mean" in f for f in record["failures"])


def test_corpus_trees_are_drawn_from_the_trees_verify_all_enumerates():
    trees, count, _ = _all_reduced_trees(3, 2)
    decoded = [workloads._reduced_tree(k, (0, 1, 2), 2) for k in range(workloads._reduced_count(2, 3))]
    assert len(decoded) == count
    assert decoded == list(trees)


def test_an_exception_counts_as_one_failed_instance_and_the_run_goes_on(monkeypatch):
    def broken(result):
        raise RuntimeError("injected")

    monkeypatch.setattr(synth, "fanin2_reduce", broken)
    record = tiny("dtree-compile", True)
    result = record["result"]
    assert not result["correct"]
    # every tree and merge instance raised, each counted once, in both passes
    assert result["failed"] == result["attempted"] == 2 * record["cycle_instances"]
    assert all("raised RuntimeError: injected" in f for f in record["failures"])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_counters_repeat_exactly_traced_or_untraced(workload):
    untraced = tiny(workload, False)
    traced = tiny(workload, True)
    again = tiny(workload, False)
    assert traced["counters_repeat"]
    assert untraced["counters_per_cycle"] == traced["counters_per_cycle"]
    assert untraced["counters_per_cycle"] == again["counters_per_cycle"]


def test_tail_keeps_ten_samples_beyond_the_percentile():
    value, beyond = run.tail([float(v) for v in range(1, 1001)], 99.0)
    assert (value, beyond) == (990.0, 10)


def test_self_time_subtracts_children():
    tr = run.tracing.Tracer()
    tr.spans = [["outer", 0, 100, -1, 0], ["inner", 10, 40, 0, 0], ["inner", 50, 60, 0, 0]]
    assert tr.totals() == {"outer": (1, 60), "inner": (2, 40)}


def test_fails_without_printing_a_result_where_the_package_is_missing(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "dtree-compile", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout

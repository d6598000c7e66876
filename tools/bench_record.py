#!/usr/bin/env python3
"""Record the benchmark of one or more checkouts into ``BENCH_<n>.json``.

    python3 tools/bench_record.py --number 10 parent=../parent change=.

For every workload of ``perfbench`` and every seed 1..k, each checkout runs
``perfbench/run.py --trace 0`` in turn (the order alternates from seed to
seed, so slow drift of a shared host weighs on both sides alike), then
``--trace 1`` at seeds 1..3, alternating the same way, then one more
``--trace 0`` run at the held-out seed 9001, on which a claim must also hold
(the order alternates from workload to workload).  Every run lasts the
benchmark's own ``run_seconds``.  The file holds the machine and each
checkout's commit; per workload the median, interquartile range and per-seed
values (in seed order, so that seed s of one checkout pairs with seed s of
another) of every end-to-end metric, rescaled as ``run.py`` reports it
beside unscaled; the instances the runs attempted, in total and per seed
(``run.py`` keeps every latency, so ``peak_rss_mb`` grows with them); the
calibration medians of the runs; the same three figures of every traced
per-layer ``self_s``, since one traced cycle alone can move by a quarter on
unchanged code; and, under ``held_out``, the end-to-end figures of the
held-out run.  It also holds each checkout's ``src/`` line count, the
newlines of its Python files as ``wc -l`` counts them.
``run.py`` itself is run unchanged from each checkout.  Before the
workloads, each checkout runs ``python -m circuit_energy verify-all --level
full --json`` 3 times, the checkouts alternating; the file keeps each
check's ``seconds`` and the wall time, per run and their median, and a
digest of the output without them, which two checkouts with the same
results share.  A checkout whose runs disagree on the digest or the exit
code stops the recording with a non-zero exit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("dtree-compile", "wide-sweep", "small-certify")
END_TO_END = ("throughput_inst_s", "latency_ms_p50", "latency_ms_tail", "setup_s", "peak_rss_mb")
SECONDS = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
TRACED_SEEDS = 3  # --trace 1 runs per workload and checkout
HELD_OUT_SEED = 9001  # one more --trace 0 run per workload and checkout
VERIFY_RUNS = 3  # verify-all runs per checkout


def run(checkout: Path, workload: str, seed: int, trace: int) -> dict:
    """One ``run.py`` run; returns the record it wrote to ``perfbench/out``."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(SECONDS), "--trace", str(trace)]
    subprocess.run(cmd, cwd=checkout, check=True, stdout=subprocess.DEVNULL)
    out = checkout / "perfbench" / "out" / f"{workload}-seed{seed}-trace{trace}.json"
    return json.loads(out.read_text())


def src_lines(checkout: Path) -> int:
    """The newlines of the Python files under a checkout's ``src/``."""
    return sum(p.read_bytes().count(b"\n") for p in (checkout / "src").rglob("*.py"))


def verify_all(checkout: Path) -> dict:
    """Per-check seconds and wall time of one full ``verify-all --json`` run
    of a checkout, and the SHA-256 of its output without them."""
    cmd = [sys.executable, "-m", "circuit_energy", "verify-all", "--level", "full", "--json"]
    env = {**os.environ, "PYTHONPATH": str(checkout / "src")}
    done = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True)
    if done.returncode not in (0, 1):  # 1: a checked inequality failed
        raise SystemExit(f"verify-all failed in {checkout}:\n{done.stderr}")
    doc = json.loads(done.stdout)
    seconds = {c["check_id"]: c.pop("seconds") for c in doc["checks"]}
    return {
        "exit_code": done.returncode,
        "seconds": seconds,
        "wall_time_s": doc.pop("wall_time"),
        "output_sha256": hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest(),
    }


def verify_runs(label: str, runs: list[dict]) -> dict:
    """The ``verify_all`` runs of one checkout: each check's seconds and the
    wall time per run and their median, and the one exit code and digest
    that every run must share."""
    if len({(r["exit_code"], r["output_sha256"]) for r in runs}) > 1:
        raise SystemExit(f"verify-all runs of {label} disagree: "
                         + ", ".join(f"exit {r['exit_code']} {r['output_sha256'][:12]}"
                                     for r in runs))

    def timed(values: list[float]) -> dict:
        return {"median": statistics.median(values), "per_run": values}

    return {
        "exit_code": runs[0]["exit_code"],
        "output_sha256": runs[0]["output_sha256"],
        "seconds": {check: timed([r["seconds"][check] for r in runs])
                    for check in runs[0]["seconds"]},
        "wall_time_s": timed([r["wall_time_s"] for r in runs]),
    }


def spread(values: list[float]) -> dict:
    """Median, interquartile range (inclusive quartiles) and the values."""
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "iqr": q3 - q1, "per_seed": values}


def summarize(records: list[dict]) -> dict:
    """Per-workload figures over the ``--trace 0`` records of one checkout."""
    rescaled = {m: [r["result"]["metrics"][m]["value"] for r in records] for m in END_TO_END}
    unscaled = {m: [r["notes"]["unscaled"][m] for r in records]
                for m in END_TO_END if m in records[0]["notes"]["unscaled"]}
    return {
        "runs": len(records),
        "failed": sum(r["failed"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "attempted_per_seed": [r["attempted"] for r in records],
        "rescaled": {m: spread(v) for m, v in rescaled.items()},
        "unscaled": {m: spread(v) for m, v in unscaled.items()},
        "calibration_medians": [r["notes"]["calibration"]["median"] for r in records],
    }


def held_out(record: dict) -> dict:
    """The end-to-end figures of one checkout's run at the held-out seed."""
    return {
        "seed": HELD_OUT_SEED,
        "failed": record["failed"],
        "attempted": record["attempted"],
        "rescaled": {m: record["result"]["metrics"][m]["value"] for m in END_TO_END},
        "unscaled": {m: v for m, v in record["notes"]["unscaled"].items() if m in END_TO_END},
    }


def self_times(records: list[dict]) -> dict:
    """Median, interquartile range and per-seed values of every per-layer
    ``self_s`` over the ``--trace 1`` records of one checkout."""
    names = [name for name in records[0]["result"]["metrics"] if name.endswith(".self_s")]
    return {name: spread([r["result"]["metrics"][name]["value"] for r in records])
            for name in names}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--number", required=True, help="names the output file BENCH_<n>.json")
    ap.add_argument("--seeds", type=int, default=10, help="seeds 1..k per workload (k >= 3)")
    ap.add_argument("checkouts", nargs="+", help="LABEL=DIR, one per checkout")
    args = ap.parse_args(argv)
    if args.seeds < 3:
        ap.error("--seeds must be at least 3")
    sides = []
    for spec in args.checkouts:
        label, sep, path = spec.partition("=")
        if not sep or not (Path(path) / "perfbench" / "run.py").is_file():
            ap.error(f"{spec!r} is not LABEL=DIR of a checkout with perfbench/run.py")
        sides.append((label, Path(path).resolve()))

    runs = {label: [] for label, _ in sides}
    for k in range(VERIFY_RUNS):
        for label, path in sides[::-1] if k % 2 == 0 else sides:
            print(f"verify-all run={k + 1} {label}", file=sys.stderr, flush=True)
            runs[label].append(verify_all(path))
    verify = {label: verify_runs(label, runs[label]) for label, _ in sides}
    plain = {label: {w: [] for w in WORKLOADS} for label, _ in sides}
    traced = {label: {w: [] for w in WORKLOADS} for label, _ in sides}
    held = {label: {} for label, _ in sides}
    for k, w in enumerate(WORKLOADS):
        for trace, seeds, records in ((0, args.seeds, plain), (1, TRACED_SEEDS, traced)):
            for seed in range(1, seeds + 1):
                order = sides if seed % 2 else sides[::-1]
                for label, path in order:
                    print(f"{w} seed={seed} trace={trace} {label}", file=sys.stderr, flush=True)
                    records[label][w].append(run(path, w, seed, trace))
        for label, path in sides if k % 2 else sides[::-1]:
            print(f"{w} seed={HELD_OUT_SEED} trace=0 {label}", file=sys.stderr, flush=True)
            held[label][w] = run(path, w, HELD_OUT_SEED, 0)

    first = plain[sides[0][0]][WORKLOADS[0]][0]["machine"]
    doc = {
        "what": "perfbench/run.py end-to-end runs (--trace 0) over seeds 1..k per workload, "
                f"checkouts alternating, plus --trace 1 runs at seeds 1..{TRACED_SEEDS}, "
                f"one --trace 0 run at the held-out seed {HELD_OUT_SEED}, "
                f"and {VERIFY_RUNS} alternating `verify-all --level full --json` runs per "
                "checkout",
        "command": f"python3 perfbench/run.py --workload W --seed S --seconds {SECONDS:g} "
                   "--trace T",
        "seeds": list(range(1, args.seeds + 1)),
        "machine": {k: v for k, v in first.items() if k != "commit"},
        "checkouts": [
            {
                "label": label,
                "commit": plain[label][WORKLOADS[0]][0]["machine"]["commit"],
                "src_lines": src_lines(path),
                "verify_all_full": verify[label],
                "workloads": {w: {**summarize(plain[label][w]),
                                  "traced_self_s": self_times(traced[label][w]),
                                  "held_out": held_out(held[label][w])}
                              for w in WORKLOADS},
            }
            for label, path in sides
        ],
    }
    out = ROOT / f"BENCH_{args.number}.json"
    out.write_text(json.dumps(doc, indent=1) + "\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())

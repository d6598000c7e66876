#!/usr/bin/env python3
"""Benchmark of the circuit-energy package on three seeded workloads.

    python3 perfbench/run.py --workload dtree-compile --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from its ``src``
directory.  Inputs are generated from ``--seed``.  Load is a closed loop with
one client: one process, no worker threads, each instance starting when the
previous one finished.  The timed loop runs whole cycles of the workload's
fixed mix until ``--seconds`` have passed.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs pairs of
cycles, one untraced and one traced, for ``--seconds`` and reports per-layer
calls, self time and exact work counts per cycle, with the tracing overhead.
Either way the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines above it are
for people.  A record with the machine, the inputs and every metric is
written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter, perf_counter_ns

import numpy as np

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# Set-up repeats at least SETUP_REPS times and for at least SETUP_MIN_S, so a
# short set-up still gets a median of many repetitions.
SETUP_REPS = 7
SETUP_MIN_S = 4.0
# On a shared host the speed of a core drifts as other tenants come and go:
# by up to 1.6x, for 10 s or more, on the 2-core Intel Xeon virtual machine
# the benchmark was defined on.  Every time is therefore rescaled to a
# reference speed by fixed calibration loops run around it: in the timed loop
# at least every 0.2 s between instances, in set-up around each part.
CALIBRATE_EVERY_NS = 200_000_000
# The tail percentile per workload: inside the block of a cycle's slowest
# instances, leaving far more than ten samples beyond it in a run of 30 s.
TAIL_PERCENTILE = {"dtree-compile": 99.0, "wide-sweep": 85.0, "small-certify": 99.0}

END_TO_END = {
    "throughput_inst_s": "1/s",
    "latency_ms_p50": "ms",
    "latency_ms_tail": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# calls into a layer made by the timed loop, each reported as .calls and .self_s
TRACED = (
    "semantics.energy_exhaustive", "semantics.truth_table", "semantics.psens",
    "semantics.firing_patterns",
    "synth.dt_to_circuit", "synth.fanin2_reduce", "synth.connector_merge",
    "synth.compile_truth_table",
    "bounds.check_psens_bound", "bounds.find_positive_path", "bounds.dt_from_patterns",
    "kw.make_instance", "kw.run_protocol",
    "formulas.decompose_gk", "formulas.restriction_energy_check",
    "formulas.readonce_leafneg_energy", "formulas.nonskew_energy_estimate",
    "textio.parse_netlist", "textio.parse_truth_table",
    "bench.oracle", "bench.instance",
)
# the parts of set-up, which sum to setup_s
SETUP_PARTS = ("bench.setup.import_s", "bench.setup.generate_s", "semantics.var_masks.cold_s")
# calls made while generating inputs, reported as .self_s
SETUP_CALLS = (
    "corpus.generate", "corpus.generate_nonskew",
    "textio.serialize_netlist", "textio.serialize_truth_table",
)
# exact work counts per cycle
COUNTERS = (
    "bench.instances", "semantics.gate_inputs", "semantics.energy_exhaustive.gate_inputs",
    "synth.gates_out", "bounds.patterns", "bounds.paths_found",
    "kw.alice_bits", "kw.repairs", "textio.bytes_parsed",
)


def per_layer_units() -> dict[str, str]:
    units = {}
    for name in TRACED:
        units[name + ".calls"] = "count"
        units[name + ".self_s"] = "s"
    for name in SETUP_CALLS:
        units[name + ".self_s"] = "s"
    for name in SETUP_PARTS:
        units[name] = "s"
    units.update({
        "semantics.energy_exhaustive.ns_per_gate_input": "ns",
        "bench.untraced.wall_s": "s",
        "bench.traced.wall_s": "s",
        "bench.trace.overhead": "ratio",
        "bench.trace.coverage": "ratio",
    })
    for name in COUNTERS:
        units[name] = "count"
    return units


# --------------------------------------------------------------------------
# machine speed


def _object_loop() -> int:
    """Allocation, dict and sort work like the package's own object graphs:
    of the loops tried, its speed followed dtree-compile and small-certify
    through a neighbour's load best."""
    d = {}
    for i in range(1500):
        d[(i * 7919) % 1531] = [i, (i, str(i))]
    return len(sorted(d.items()))


_BITS = np.frombuffer(bytes(range(256)) * 512, dtype=np.uint8)


def _array_loop() -> int:
    """The array work of one gate of an n=20 sweep: a 4 MB accumulator and
    a 2^20-bit unpack."""
    acc = np.zeros(1 << 20, dtype=np.uint32)
    acc += np.unpackbits(_BITS, bitorder="little").astype(np.uint32)
    return int(acc[1])


def _bigint_loop() -> int:
    """Big-integer division and multiplication like a ``var_masks`` warm-up,
    on 2^15-bit numbers."""
    total = 1 << 15
    acc = 0
    for i in range(15):
        block = ((1 << (1 << i)) - 1) << (1 << i)
        acc ^= block * (((1 << total) - 1) // ((1 << (2 << i)) - 1))
    return acc.bit_length()


# Calibration loops with their reference times in ns: round figures near each
# loop's time on the machine the benchmark was defined on, fixed scales rather
# than measurements.
OBJECT = ((_object_loop, 1_000_000),)
BIGINT = ((_bigint_loop, 2_000_000),)
# wide-sweep does object, numpy and big-integer work in different shares per
# instance: its n=20 sweeps followed the array loop, the whole cycle the
# object loop, and the mean of all three loops kept all its figures steady.
TIMED_LOOPS = {
    "dtree-compile": OBJECT,
    "wide-sweep": (*OBJECT, (_array_loop, 1_000_000), *BIGINT),
    "small-certify": OBJECT,
}
# Per part of set-up, the loops whose speed follows it: import and input
# generation are Python object work, the var_masks warm-up big-integer work.
SETUP_LOOPS = {
    "bench.setup.import_s": OBJECT,
    "bench.setup.generate_s": OBJECT,
    "semantics.var_masks.cold_s": BIGINT,
}


def calibrate(loops) -> float:
    """A calibration reading: over the loops, the mean of the fastest of
    three runs over the loop's reference time; 1.0 at reference speed."""
    total = 0.0
    for loop, reference_ns in loops:
        best = None
        for _ in range(3):
            t0 = perf_counter_ns()
            loop()
            took = perf_counter_ns() - t0
            best = took if best is None else min(best, took)
        total += best / reference_ns
    return total / len(loops)


class Clock:
    """Collects instance times and rescales each to the reference speed by
    the mean of the calibrations that open and close its window."""

    def __init__(self, loops) -> None:
        self.loops = loops
        self.calibrations = [calibrate(loops)]
        self.opened = perf_counter_ns()
        self.pending: list[int] = []
        self.raw: list[int] = []
        self.scaled: list[float] = []

    def tick(self) -> None:
        if perf_counter_ns() - self.opened >= CALIBRATE_EVERY_NS:
            self.close()

    def add(self, ns: int) -> None:
        self.pending.append(ns)
        self.raw.append(ns)

    def close(self) -> None:
        c = calibrate(self.loops)
        factor = 2 / (self.calibrations[-1] + c)
        self.scaled += [ns * factor for ns in self.pending]
        self.pending = []
        self.calibrations.append(c)
        self.opened = perf_counter_ns()


def at_reference(loops, fn):
    """Run fn(); returns its result, its wall-clock time in s, and the factor
    that rescales a time taken in it to the reference speed."""
    c0 = calibrate(loops)
    t0 = perf_counter()
    out = fn()
    took = perf_counter() - t0
    return out, took, 2 / (c0 + calibrate(loops))


# --------------------------------------------------------------------------
# set-up


def import_seconds() -> float:
    """Time of a cold ``import circuit_energy`` in a fresh interpreter."""
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
        "import circuit_energy; print(time.perf_counter() - t)"
    )
    done = subprocess.run(
        [sys.executable, "-I", "-c", code, str(SRC)],
        capture_output=True, text=True, check=True, timeout=120,
    )
    return float(done.stdout)


@contextmanager
def one_cpu():
    """Keep this process, and the interpreters it starts, on one CPU, so a
    part of set-up runs where the calibration readings around it were taken."""
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, cpus)


def set_up(workloads, workload: str, seed: int, tiny: bool = False):
    """Generate the inputs repeatedly on one CPU; ``tiny`` inputs skip
    SETUP_MIN_S.  Returns the cycle, the median of each part of set-up and of
    each call made in it at reference speed, in s, and the median wall-clock
    total of a repetition."""
    with one_cpu():
        return _set_up(workloads, workload, seed, tiny)


def _set_up(workloads, workload: str, seed: int, tiny: bool):
    from circuit_energy import semantics

    scaled = {name: [] for name in (*SETUP_PARTS, *(c + ".self_s" for c in SETUP_CALLS))}
    walls = []
    start = perf_counter()
    while len(walls) < SETUP_REPS or (not tiny and perf_counter() - start < SETUP_MIN_S):
        imp, _, f_imp = at_reference(SETUP_LOOPS["bench.setup.import_s"], import_seconds)
        semantics.var_masks.cache_clear()
        st = tracing.Tracer()
        cycle, gen, f_gen = at_reference(SETUP_LOOPS["bench.setup.generate_s"],
                                         lambda: workloads.build(workload, seed, st, tiny))
        _, warm, f_warm = at_reference(SETUP_LOOPS["semantics.var_masks.cold_s"],
                                       lambda: [semantics.var_masks(n) for n in cycle.ns])
        walls.append(imp + gen + warm)
        scaled["bench.setup.import_s"].append(imp * f_imp)
        scaled["bench.setup.generate_s"].append(gen * f_gen)
        scaled["semantics.var_masks.cold_s"].append(warm * f_warm)
        totals = st.totals()
        for name in SETUP_CALLS:
            scaled[name + ".self_s"].append(totals.get(name, (0, 0))[1] * f_gen / 1e9)
    medians = {name: statistics.median(v) for name, v in scaled.items()}
    return cycle, medians, statistics.median(walls)


# --------------------------------------------------------------------------
# timed loop


def run_cycle(workloads, cycle, tr, clock: Clock | None = None):
    """Every instance of the cycle once.  An instance fails when the oracle
    finds a problem or the package raises; the loop goes on either way."""
    counters = Counter()
    latencies = []
    failures = []
    for k, inst in enumerate(cycle.instances):
        if clock is not None:
            clock.tick()
        tr.instance = k
        t0 = perf_counter_ns()
        sid = tr.begin("bench.instance")
        try:
            problems = workloads.PIPELINES[inst.kind](inst, tr, counters)
        except Exception as exc:  # noqa: BLE001 - a raising instance is a failed one
            problems = [f"raised {type(exc).__name__}: {exc}"]
        finally:
            tr.end(sid)
        latencies.append(perf_counter_ns() - t0)
        if clock is not None:
            clock.add(latencies[-1])
        if problems:
            failures.append(f"{inst.label}: {'; '.join(problems)}")
    counters["bench.instances"] = len(cycle.instances)
    return latencies, dict(counters), failures


def tail(latencies_ms: list[float], percentile: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples above its rank."""
    ordered = sorted(latencies_ms)
    rank = max(1, math.ceil(len(ordered) * percentile / 100))
    return ordered[rank - 1], len(ordered) - rank


class Run:
    def __init__(self, workload: str, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.attempted = 0
        self.failures: list[str] = []
        self.counters: dict | None = None
        self.counter_mismatch = False
        self.metrics: dict[str, float] = {}
        self.notes: dict = {}

    def add_cycle(self, latencies, counters, failures) -> None:
        self.attempted += len(latencies)
        self.failures += failures
        if self.counters is None:
            self.counters = counters
        elif counters != self.counters:
            self.counter_mismatch = True

    @property
    def correct(self) -> bool:
        return not self.failures and not self.counter_mismatch


def run_untraced(workloads, run: Run, cycle, seconds: float) -> None:
    clock = Clock(TIMED_LOOPS[run.workload])
    start = perf_counter()
    while True:
        run.add_cycle(*run_cycle(workloads, cycle, tracing.NullTracer(), clock))
        if perf_counter() - start >= seconds:
            break
    clock.close()
    wall = perf_counter() - start
    latencies = [ns / 1e6 for ns in clock.scaled]
    pct = TAIL_PERCENTILE[run.workload]
    value, beyond = tail(latencies, pct)
    run.metrics["throughput_inst_s"] = len(latencies) / (sum(latencies) / 1e3)
    run.metrics["latency_ms_p50"] = statistics.median(latencies)
    run.metrics["latency_ms_tail"] = value
    run.notes["latency_ms_tail"] = {"percentile": pct, "samples": len(latencies), "beyond": beyond}
    run.notes["wall_s"] = wall
    run.notes["unscaled"] = {
        "throughput_inst_s": len(latencies) / wall,
        "latency_ms_p50": statistics.median(clock.raw) / 1e6,
        "latency_ms_tail": tail([ns / 1e6 for ns in clock.raw], pct)[0],
    }
    run.notes["calibration"] = {
        "median": statistics.median(clock.calibrations),
        "min": min(clock.calibrations),
        "max": max(clock.calibrations),
    }


def run_traced(workloads, run: Run, cycle, seconds: float, spans_path: Path | None) -> None:
    """Pairs of cycles, untraced then traced, until ``seconds`` have passed.
    Times are per cycle at reference speed, medians over the pairs.  The
    spans of the first traced cycle go to ``spans_path``."""
    walls_u, walls_t, totals = [], [], []
    start = perf_counter()
    first = None
    while True:
        loops = TIMED_LOOPS[run.workload]
        done, wall, factor = at_reference(
            loops, lambda: run_cycle(workloads, cycle, tracing.NullTracer()))
        run.add_cycle(*done)
        walls_u.append(wall * factor)
        tr = tracing.Tracer()
        done, wall, factor = at_reference(loops, lambda: run_cycle(workloads, cycle, tr))
        run.add_cycle(*done)
        walls_t.append(wall * factor)
        totals.append({k: (calls, ns * factor) for k, (calls, ns) in tr.totals().items()})
        if first is None:
            first = tr
        if perf_counter() - start >= seconds:
            break
    m = run.metrics
    for name in TRACED:
        m[name + ".calls"] = totals[0].get(name, (0, 0))[0]
        m[name + ".self_s"] = statistics.median(t.get(name, (0, 0))[1] for t in totals) / 1e9
    for name in COUNTERS:
        m[name] = run.counters.get(name, 0)
    work = m["semantics.energy_exhaustive.gate_inputs"]
    m["semantics.energy_exhaustive.ns_per_gate_input"] = (
        m["semantics.energy_exhaustive.self_s"] * 1e9 / work if work else 0.0
    )
    wall_u, wall_t = statistics.median(walls_u), statistics.median(walls_t)
    m["bench.untraced.wall_s"] = wall_u
    m["bench.traced.wall_s"] = wall_t
    m["bench.trace.overhead"] = wall_t / wall_u - 1.0
    m["bench.trace.coverage"] = (
        sum(m[name + ".self_s"] for name in TRACED if name != "bench.instance") / wall_t
    )
    run.notes["traced_cycles"] = len(totals)
    if spans_path is not None:
        first.write_jsonl(spans_path)


# --------------------------------------------------------------------------
# reporting


def git_commit() -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def machine() -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": git_commit(),
    }


def load_package() -> str | None:
    """Import the package from the checkout's ``src``; returns an error
    message when that is impossible."""
    if not (SRC / "circuit_energy" / "__init__.py").is_file():
        return f"no package source at {SRC}/circuit_energy"
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import circuit_energy

    if Path(circuit_energy.__file__).resolve().parent != SRC / "circuit_energy":
        return f"circuit_energy was imported from {circuit_energy.__file__}"
    return None


def measure(workload: str, seed: int, seconds: float, trace: bool,
            tiny: bool = False, spans_path: Path | None = None) -> dict:
    """Set up, run the timed loop and return the record of one run.
    ``tiny`` shrinks the workload to a handful of small instances."""
    import workloads

    run = Run(workload, seed)
    cycle, setup, setup_wall = set_up(workloads, workload, seed, tiny)
    if trace:
        run_traced(workloads, run, cycle, seconds, spans_path)
        run.metrics.update(setup)
        units = per_layer_units()
    else:
        run_untraced(workloads, run, cycle, seconds)
        run.metrics["setup_s"] = sum(setup[name] for name in SETUP_PARTS)
        run.notes["unscaled"]["setup_s"] = setup_wall
        run.metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        units = END_TO_END
    failed = len(run.failures)
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "machine": machine(),
        "cycle_instances": len(cycle.instances),
        "attempted": run.attempted,
        "failed": failed,
        "failed_frac": failed / run.attempted,
        "counters_repeat": not run.counter_mismatch,
        "counters_per_cycle": run.counters,
        "notes": run.notes,
        "failures": run.failures[:20],
        "result": {
            "correct": run.correct,
            "attempted": run.attempted,
            "failed": failed,
            "metrics": {k: {"value": run.metrics[k], "unit": u} for k, u in units.items()},
        },
    }


def render(record: dict) -> list[str]:
    """Lines for people, then the JSON result as the last line."""
    result = record["result"]
    lines = [f"# {record['workload']} seed={record['seed']} {json.dumps(record['machine'])}"]
    for name, m in result["metrics"].items():
        extra = ""
        if name == "latency_ms_tail":
            t = record["notes"][name]
            extra = f"  (p{t['percentile']:g} of {t['samples']}, {t['beyond']} beyond)"
        lines.append(f"{name} {m['value']:.6g} {m['unit']}{extra}")
    lines.append(
        f"failed_frac {record['failed_frac']:.6g} ratio  "
        f"({record['failed']} of {record['attempted']})"
    )
    if not record["counters_repeat"]:
        lines.append("error: work counters differ between cycles of the same inputs")
    lines += [f"FAIL {line}" for line in record["failures"][:5]]
    lines.append(json.dumps(result))
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    error = load_package()
    if error is None:
        import workloads

        if args.workload not in workloads.WORKLOADS:
            error = f"unknown workload {args.workload!r}; one of {', '.join(workloads.WORKLOADS)}"
    if error is not None:
        print(f"error: {error}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}"
    record = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                     spans_path=OUT / f"spans-{name}.jsonl")
    (OUT / f"{name}-trace{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n")
    print("\n".join(render(record)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

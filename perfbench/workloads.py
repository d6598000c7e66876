"""The benchmark's three workloads: seeded input generation, the pipeline
each instance runs through the package's layers, and an oracle per instance.

``build(workload, seed, setup_tracer)`` returns a ``Cycle``: the ordered
instances of one pass over the workload's fixed mix, and the variable counts
whose ``var_masks`` the set-up warms.  Every pipeline takes
``(instance, tracer, counters)``, wraps each call into a layer in a span named
``<module>.<function>``, adds its exact work counts to ``counters``, and
returns the oracle's list of problems (empty when the instance is correct).
Oracle work runs in ``bench.oracle`` spans and calls the package directly, so
it never counts as a layer's time.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field

import numpy as np

from circuit_energy import bounds, corpus, formulas, kw, semantics, synth, textio
from circuit_energy.corpus import CIRCUIT, DTREE, FORMULA, MONOTONE, READONCE_LEAFNEG, GenSpec
from circuit_energy.ir import AND, CONST, FANIN2, INPUT, NOT, OR, DecisionTree

@dataclass(slots=True)
class Instance:
    kind: str
    label: str
    n: int
    data: dict
    samples: list = field(default_factory=list)  # seeded inputs for the oracle


@dataclass(slots=True)
class Cycle:
    instances: list[Instance]
    ns: tuple[int, ...]


# --------------------------------------------------------------------------
# helpers shared by generators and oracles


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def _seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**31))


def _bits(j: int, n: int) -> tuple[int, ...]:
    return tuple((j >> i) & 1 for i in range(n))


def _index(x) -> int:
    return sum(b << i for i, b in enumerate(x))


def _samples(rng: np.random.Generator, n: int, k: int = 3) -> list[tuple]:
    return [_bits(int(rng.integers(0, 1 << n)), n) for _ in range(k)]


def _interleave(groups: list[list[Instance]]) -> list[Instance]:
    """Spread every group evenly over one list, so any stretch of the cycle
    holds about the same mix."""
    keyed = [
        ((j + 0.5) / len(g), gi, j, inst)
        for gi, g in enumerate(groups)
        for j, inst in enumerate(g)
    ]
    keyed.sort(key=lambda t: t[:3])
    return [t[3] for t in keyed]


def _op_gates(c) -> int:
    return sum(1 for g in c.gates if g.kind not in (INPUT, CONST))


def _negs(c) -> int:
    return sum(1 for g in c.gates if g.kind == NOT)


def _sweep(tr, counters, name: str, c):
    """A semantics call that sweeps every gate over all 2^n inputs."""
    work = _op_gates(c) << c.num_vars
    counters["semantics.gate_inputs"] += work
    if name == "energy_exhaustive":
        counters["semantics.energy_exhaustive.gate_inputs"] += work
    return tr.call("semantics." + name, getattr(semantics, name), c)


def _tree_bits(node, n: int) -> int:
    """Truth table of a decision-tree node, from the variable masks."""
    full = (1 << (1 << n)) - 1
    if isinstance(node, int):
        return full if node else 0
    v, lo, hi = node
    mv = semantics.var_masks(n)[v]
    return ((full ^ mv) & _tree_bits(lo, n)) | (mv & _tree_bits(hi, n))


def _tree_depth(node) -> int:
    if isinstance(node, int):
        return 0
    return 1 + max(_tree_depth(node[1]), _tree_depth(node[2]))


def _tree_leaves(node) -> int:
    if isinstance(node, int):
        return 1
    return _tree_leaves(node[1]) + _tree_leaves(node[2])


def _energy_problems(c, rep, samples, what: str) -> list[str]:
    """EC is attained at the reported argmax and no sampled input beats it."""
    problems = []
    at = semantics.evaluate(c, rep.argmax_input).energy
    if at != rep.ec:
        problems.append(f"{what}: energy at argmax is {at}, EC says {rep.ec}")
    for x in samples:
        e = semantics.evaluate(c, x).energy
        if e > rep.ec:
            problems.append(f"{what}: input {x} fires {e} > EC {rep.ec}")
            break
    return problems


# --------------------------------------------------------------------------
# dtree-compile: decision trees through both tree compilers


# n=4 trees drawn uniformly from every reduced tree within depth 3: the
# exhaustive corpus of `verify-all`, 364 818 trees of which 99.8 % have depth 3
CORPUS_N, CORPUS_DEPTH, CORPUS_TREES = 4, 3, 1200
# (n, depth, target leaves, count): deep trees, each the full-depth one of
# DEEP_DRAWS seeded draws whose leaf count is nearest the median leaf count of
# full-depth draws, so every seed's cycle and set-up cost about the same
DEEP_TREES = ((8, 6, 24, 12), (9, 7, 35, 8), (10, 8, 53, 6), (11, 9, 60, 6), (12, 10, 170, 24))
DEEP_DRAWS = 12
MERGES = 16


def _reduced_count(depth: int, k: int) -> int:
    """Reduced trees within ``depth`` over ``k`` free variables: 2 + k*T(d-1, k-1)^2."""
    if depth == 0 or k == 0:
        return 2
    return 2 + k * _reduced_count(depth - 1, k - 1) ** 2


def _reduced_tree(index: int, avail: tuple[int, ...], depth: int):
    """The ``index``-th reduced tree: the leaves 0 and 1, then (v, lo, hi) for
    each v in ``avail`` and each pair of subtrees over the other variables."""
    if index < 2:
        return index
    sub = _reduced_count(depth - 1, len(avail) - 1)
    pos, rest = divmod(index - 2, sub * sub)
    v = avail[pos]
    others = tuple(u for u in avail if u != v)
    lo, hi = divmod(rest, sub)
    return (v, _reduced_tree(lo, others, depth - 1), _reduced_tree(hi, others, depth - 1))


def _corpus_tree(rng) -> DecisionTree:
    index = int(rng.integers(0, _reduced_count(CORPUS_DEPTH, CORPUS_N)))
    return DecisionTree(CORPUS_N, _reduced_tree(index, tuple(range(CORPUS_N)), CORPUS_DEPTH))


def _deep_tree(rng, n: int, depth: int, target: int, st) -> DecisionTree:
    draws = [
        st.call("corpus.generate", corpus.generate,
                GenSpec(seed=_seed(rng), num_vars=n, size_budget=depth, shape=DTREE))
        for _ in range(DEEP_DRAWS)
    ]
    return min(draws, key=lambda t: (depth - _tree_depth(t.root), abs(_tree_leaves(t.root) - target)))


def _build_dtree(seed: int, st, tiny: bool) -> Cycle:
    rng = _rng(seed, 1)
    groups = [[
        Instance("tree", f"n={CORPUS_N} corpus tree {k}", CORPUS_N,
                 {"tree": _corpus_tree(rng)}, _samples(rng, CORPUS_N))
        for k in range(2 if tiny else CORPUS_TREES)
    ]]
    for n, d, target, count in DEEP_TREES[:1] if tiny else DEEP_TREES:
        groups.append([
            Instance("tree", f"n={n} d={d} tree {k}", n,
                     {"tree": _deep_tree(rng, n, d, target, st)}, _samples(rng, n))
            for k in range(1 if tiny else count)
        ])
    merges = []
    for k in range(1 if tiny else MERGES):
        data = {"sides": [_corpus_tree(rng), _corpus_tree(rng)], "var": int(rng.integers(0, 4))}
        merges.append(Instance("merge", f"merge {k}", CORPUS_N, data, _samples(rng, CORPUS_N)))
    cycle = _interleave([*groups, merges])
    return Cycle(cycle, tuple(sorted({inst.n for inst in cycle})))


def run_tree(inst: Instance, tr, counters) -> list[str]:
    tree = inst.data["tree"]
    res = tr.call("synth.dt_to_circuit", synth.dt_to_circuit, tree)
    c2 = tr.call("synth.fanin2_reduce", synth.fanin2_reduce, res)
    c1 = res.circuit
    counters["synth.gates_out"] += len(c1.gates) + len(c2.gates)
    t1 = _sweep(tr, counters, "truth_table", c1)
    t2 = _sweep(tr, counters, "truth_table", c2)
    e1 = _sweep(tr, counters, "energy_exhaustive", c1)
    e2 = _sweep(tr, counters, "energy_exhaustive", c2)
    with tr.span("bench.oracle"):
        problems = []
        want = _tree_bits(tree.root, tree.num_vars)
        d = _tree_depth(tree.root)
        if t1.bits != want:
            problems.append("dt_to_circuit computes another function")
        if t2.bits != want:
            problems.append("fanin2_reduce computes another function")
        if _negs(c1) > d:
            problems.append(f"{_negs(c1)} negations > depth {d}")
        if e1.ec > 2 * d * d:
            problems.append(f"EC {e1.ec} > 2d^2 = {2 * d * d}")
        if e2.ec > 2 * d * d * (d + 1):
            problems.append(f"fan-in-2 EC {e2.ec} > 2d^2(d+1) = {2 * d * d * (d + 1)}")
        if c2.max_fanin() > 2:
            problems.append(f"fan-in {c2.max_fanin()} after fanin2_reduce")
        problems += _energy_problems(c1, e1, inst.samples, "compiled tree")
        problems += _energy_problems(c2, e2, inst.samples, "fan-in-2 tree")
    return problems


def run_merge(inst: Instance, tr, counters) -> list[str]:
    sides = []
    for tree in inst.data["sides"]:
        res = tr.call("synth.dt_to_circuit", synth.dt_to_circuit, tree)
        sides.append(tr.call("synth.fanin2_reduce", synth.fanin2_reduce, res))
    i = inst.data["var"]
    m = tr.call("synth.connector_merge", synth.connector_merge, sides[0], sides[1], i)
    counters["synth.gates_out"] += sum(len(c.gates) for c in sides) + len(m.gates)
    t = _sweep(tr, counters, "truth_table", m)
    e = _sweep(tr, counters, "energy_exhaustive", m)
    with tr.span("bench.oracle"):
        problems = []
        n = m.num_vars
        xi = semantics.var_masks(n)[i]
        b0, b1 = (_tree_bits(tree.root, n) for tree in inst.data["sides"])
        if t.bits != ((((1 << (1 << n)) - 1) ^ xi) & b0) | (xi & b1):
            problems.append("merge is not (~x_i AND c0) OR (x_i AND c1)")
        if _negs(m) > 1 + max(_negs(c) for c in sides):
            problems.append(f"merge has {_negs(m)} negations")
        problems += _energy_problems(m, e, inst.samples, "merge")
    return problems


# --------------------------------------------------------------------------
# wide-sweep: exhaustive sweeps at n = 12..20


# (shape, n, op gates, count): both sides of energies()' n <= 16 and
# 256-op-gate splits; firing_patterns runs only at n <= 16.  The counts put
# as many instances below the block of 150-gate n=20 sweeps as above it, and
# n > 16 sweeps cost the same on every seed, so the median lands in a block
# of even cost, and the p85 tail in the block of 300-gate n=20 sweeps.
SWEEPS = ((CIRCUIT, 12, 60, 3), (MONOTONE, 12, 100, 3), (CIRCUIT, 20, 150, 6),
          (CIRCUIT, 12, 400, 2), (MONOTONE, 14, 60, 2), (CIRCUIT, 20, 300, 6),
          (MONOTONE, 14, 280, 1), (CIRCUIT, 16, 16, 1))
NONSKEW = ((13, 24), (14, 28), (15, 32), (16, 36))  # (n, leaves)
NONSKEW_SAMPLES = 400


def _build_wide(seed: int, st, tiny: bool) -> Cycle:
    rng = _rng(seed, 2)
    groups = []
    for shape, n, size, count in SWEEPS:
        if tiny:
            n, size, count = min(n, 8), min(size, 40), 1
        group = []
        for k in range(count):
            spec = GenSpec(seed=_seed(rng), num_vars=n, size_budget=size,
                           neg_density=0.2, shape=shape)
            c = st.call("corpus.generate", corpus.generate, spec)
            group.append(Instance("sweep", f"{shape} n={n} size={size} #{k}", n,
                                  {"circuit": c, "monotone": shape == MONOTONE},
                                  _samples(rng, n)))
        groups.append(group)
    nonskew = []
    for n, leaves in NONSKEW[:1] if tiny else NONSKEW:
        F = st.call("corpus.generate_nonskew", corpus.generate_nonskew, _seed(rng), n, leaves)
        data = {"formula": F, "leaves": leaves, "samples": 50 if tiny else NONSKEW_SAMPLES,
                "mc_seed": _seed(rng)}
        nonskew.append(Instance("nonskew", f"nonskew n={n} L={leaves}", n, data))
    groups.append(nonskew)
    cycle = _interleave(groups)
    return Cycle(cycle, tuple(sorted({inst.n for inst in cycle})))


def run_sweep(inst: Instance, tr, counters) -> list[str]:
    c = inst.data["circuit"]
    e = _sweep(tr, counters, "energy_exhaustive", c)
    f = _sweep(tr, counters, "truth_table", c)
    p = tr.call("semantics.psens", semantics.psens, f)
    pats = _sweep(tr, counters, "firing_patterns", c) if c.num_vars <= 16 else None
    with tr.span("bench.oracle"):
        problems = _energy_problems(c, e, inst.samples, "circuit")
        if inst.data["monotone"] and e.ec != _op_gates(c):
            problems.append(f"monotone EC {e.ec} != size {_op_gates(c)}")
        got = len(semantics.psens_at(f, p.witness_input))
        if got != p.value:
            problems.append(f"psens {p.value} but its witness has {got}")
        for x in inst.samples:
            trace = semantics.evaluate(c, x)
            if f.value(_index(x)) != trace.value:
                problems.append(f"truth table disagrees with evaluation at {x}")
            if pats is not None:
                row = tuple(v for g, v in zip(c.gates, trace.gate_values) if g.kind != INPUT)
                k = bisect_left(pats, row)
                if k == len(pats) or pats[k] != row:
                    problems.append(f"firing pattern at {x} is missing")
    return problems


def run_nonskew(inst: Instance, tr, counters) -> list[str]:
    F, samples, leaves = inst.data["formula"], inst.data["samples"], inst.data["leaves"]
    stats = tr.call("formulas.nonskew_energy_estimate", formulas.nonskew_energy_estimate,
                    F, samples, inst.data["mc_seed"])
    with tr.span("bench.oracle"):
        problems = []
        # the generator pairs an even number of leaves into L/2 bottom gates
        if stats.t != leaves // 2:
            problems.append(f"t = {stats.t}, the formula has {leaves // 2} bottom gates")
        masks = semantics.gate_masks(F)
        exact = sum(
            masks[g].bit_count() for g, gate in enumerate(F.gates) if gate.kind not in (INPUT, CONST)
        ) / (1 << F.num_vars)
        if exact < leaves / 8:
            problems.append(f"exact mean energy {exact} < t/4 = {leaves / 8}")
        # Hoeffding: an energy lies in [0, L-1], so the sample mean misses the
        # exact mean by more than this with probability below 2e-6
        slack = (leaves - 1) * math.sqrt(7.0 / samples)
        if abs(stats.empirical_mean_energy - exact) > slack:
            problems.append(f"sample mean {stats.empirical_mean_energy} is more than "
                            f"{slack:.2f} from the exact mean {exact}")
    return problems


# --------------------------------------------------------------------------
# small-certify: tiny instances arriving as text


# As many instances cost less than the KW block (read-once formulas, tables)
# as cost more (certify, formulas), so the median lands inside the KW block.
CERTIFY = 112  # CIRCUIT, n = 2..8, through the psens bound and path finder
PATHS = 16  # positive paths searched per instance, spread over its sensitive pairs
KW_CIRCUITS, KW_PAIRS = 32, 2  # MONOTONE, n = 2..7
FORMULAS, FORMULA_CUTS = 32, 2  # FORMULA with negations, n = 2..8
READONCE = 32  # READONCE_LEAFNEG, n = L = 2..8
TABLES = 112  # truth tables, n = 3..4


def _serialize(st, c) -> str:
    return st.call("textio.serialize_netlist", textio.serialize_netlist, c)


def _build_small(seed: int, st, tiny: bool) -> Cycle:
    rng = _rng(seed, 3)
    scale = (lambda k: 2) if tiny else (lambda k: k)
    certify = []
    for k in range(scale(CERTIFY)):
        n = 2 + k % 7
        spec = GenSpec(seed=_seed(rng), num_vars=n, size_budget=5 + (k * 7) % 30,
                       neg_density=0.25, shape=CIRCUIT, fanin_mode=FANIN2)
        text = _serialize(st, st.call("corpus.generate", corpus.generate, spec))
        certify.append(Instance("certify", f"certify n={n} #{k}", n, {"text": text}, _samples(rng, n)))
    kws = []
    for k in range(scale(KW_CIRCUITS)):
        n = 2 + k % 6
        spec = GenSpec(seed=_seed(rng), num_vars=n, size_budget=4 + (k * 5) % 20,
                       shape=MONOTONE, fanin_mode=FANIN2)
        c = st.call("corpus.generate", corpus.generate, spec)
        pairs = []
        for _ in range(KW_PAIRS):
            # a monotone circuit is 0 on 0^n and 1 on 1^n, so both searches end
            a = next(x for x in (*_samples(rng, n, 4), (1,) * n) if semantics.evaluate(c, x).value)
            b = next(x for x in (*_samples(rng, n, 4), (0,) * n) if not semantics.evaluate(c, x).value)
            pairs.append((a, b))
        kws.append(Instance("kw", f"kw n={n} #{k}", n, {"text": _serialize(st, c), "pairs": pairs},
                            _samples(rng, n)))
    fmls = []
    for k in range(scale(FORMULAS)):
        n = 2 + k % 7
        spec = GenSpec(seed=_seed(rng), num_vars=n, size_budget=4 + (k * 3) % 21,
                       neg_density=0.3, shape=FORMULA)
        F = st.call("corpus.generate", corpus.generate, spec)
        n = 1 + max(g.arg for g in F.gates if g.kind == INPUT)  # what the text declares
        inner = [g for g in range(len(F.gates)) if g != F.output]
        cuts = [(inner[int(rng.integers(0, len(inner)))], int(rng.integers(0, 2)))
                for _ in range(FORMULA_CUTS)]
        fmls.append(Instance("formula", f"formula n={n} #{k}", n,
                             {"text": _serialize(st, F), "cuts": cuts}, _samples(rng, n)))
    readonce = []
    for k in range(scale(READONCE)):
        n = 2 + k % 7
        spec = GenSpec(seed=_seed(rng), num_vars=n, size_budget=n, neg_density=0.35,
                       shape=READONCE_LEAFNEG)
        text = _serialize(st, st.call("corpus.generate", corpus.generate, spec))
        readonce.append(Instance("readonce", f"readonce L={n} #{k}", n, {"text": text}))
    tables = []
    for k in range(scale(TABLES)):
        n = 3 + k % 2
        bits = int(rng.integers(0, 1 << (1 << n)))
        text = st.call("textio.serialize_truth_table", textio.serialize_truth_table,
                       semantics.TruthTable(n, bits))
        tables.append(Instance("table", f"table n={n} {bits:#x}", n, {"text": text, "bits": bits},
                               _samples(rng, n)))
    cycle = _interleave([certify, kws, fmls, readonce, tables])
    return Cycle(cycle, tuple(sorted({inst.n for inst in cycle})))


def _parse(tr, counters, text: str, **kwargs):
    counters["textio.bytes_parsed"] += len(text)
    return tr.call("textio.parse_netlist", textio.parse_netlist, text, **kwargs)


def _path_problems(c, masks, a_int: int, i: int, path) -> list[str]:
    ids = path.gate_ids
    start = c.gates[ids[0]]
    if start.kind != INPUT or start.arg != i:
        return [f"path for x{i} starts elsewhere"]
    if any(not (masks[g] >> a_int) & 1 for g in ids):
        return [f"path for x{i} at {a_int:#x} has a gate that does not fire"]
    if any(g not in c.gates[h].children for g, h in zip(ids, ids[1:])):
        return [f"path for x{i} is not wired"]
    if path.terminal == "ROOT":
        end_ok = ids[-1] == c.output
    else:
        nid = path.not_gate_id
        end_ok = nid is not None and c.gates[nid].kind == NOT and c.gates[nid].children[0] == ids[-1]
    return [] if end_ok else [f"path for x{i} ends at the wrong gate"]


def run_certify(inst: Instance, tr, counters) -> list[str]:
    c = _parse(tr, counters, inst.data["text"])
    n = c.num_vars
    chk = tr.call("bounds.check_psens_bound", bounds.check_psens_bound, c)
    f = _sweep(tr, counters, "truth_table", c)
    with tr.span("bench.oracle"):
        pairs = [
            (a, i)
            for a in range(1 << n)
            for i in range(n)
            if (a >> i) & 1 and ((f.bits >> a) ^ (f.bits >> (a ^ (1 << i)))) & 1
        ]
        if len(pairs) > PATHS:
            pairs = [pairs[k * len(pairs) // PATHS] for k in range(PATHS)]
    paths = [
        tr.call("bounds.find_positive_path", bounds.find_positive_path, c, _bits(a, n), i)
        for a, i in pairs
    ]
    counters["bounds.paths_found"] += len(paths)
    rep = None
    if n <= 5:
        rep = tr.call("bounds.dt_from_patterns", bounds.dt_from_patterns, c)
        counters["bounds.patterns"] += rep.pattern_count
    with tr.span("bench.oracle"):
        problems = []
        if 3 * chk.ec < chk.psens or not chk.holds:
            problems.append(f"3*EC = {3 * chk.ec} < psens = {chk.psens}")
        got = len(semantics.psens_at(f, chk.witness_input))
        if got != chk.psens:
            problems.append(f"psens {chk.psens} but its witness has {got}")
        for x in inst.samples:
            if semantics.evaluate(c, x).energy > chk.ec:
                problems.append(f"input {x} fires more than EC {chk.ec}")
        masks = semantics.gate_masks(c)
        for (a, i), path in zip(pairs, paths):
            problems += _path_problems(c, masks, a, i, path)
        if rep is not None:
            if _tree_bits(rep.extracted_tree.root, n) != f.bits:
                problems.append("extracted tree computes another function")
            if _tree_depth(rep.extracted_tree.root) > rep.max_fanin * rep.pattern_count:
                problems.append("extracted tree deeper than maxFanin * patterns")
            if rep.energy != chk.ec:
                problems.append(f"dt_from_patterns EC {rep.energy} != {chk.ec}")
    return problems


def run_kw(inst: Instance, tr, counters) -> list[str]:
    c = _parse(tr, counters, inst.data["text"])
    e = _sweep(tr, counters, "energy_exhaustive", c)
    runs = []
    for a, b in inst.data["pairs"]:
        ki = tr.call("kw.make_instance", kw.make_instance, c, a, b)
        t = tr.call("kw.run_protocol", kw.run_protocol, ki)
        counters["kw.alice_bits"] += t.alice_bits
        counters["kw.repairs"] += t.repairs
        runs.append((a, b, t))
    with tr.span("bench.oracle"):
        problems = _energy_problems(c, e, inst.samples, "monotone circuit")
        if e.ec != _op_gates(c):
            problems.append(f"monotone EC {e.ec} != size {_op_gates(c)}")
        for a, b, t in runs:
            if not (a[t.result] == 1 and b[t.result] == 0):
                problems.append(f"index {t.result} does not separate {a} from {b}")
            ec_here = semantics.evaluate(c, t.minimized_input).energy
            if t.alice_bits > ec_here * t.addr_bits:
                problems.append(f"aliceBits {t.alice_bits} > {ec_here}*{t.addr_bits}")
    return problems


def run_formula(inst: Instance, tr, counters) -> list[str]:
    F = _parse(tr, counters, inst.data["text"], formula=True)
    dec = tr.call("formulas.decompose_gk", formulas.decompose_gk, F)
    reps = [
        tr.call("formulas.restriction_energy_check", formulas.restriction_energy_check, F, g, b)
        for g, b in inst.data["cuts"]
    ]
    tf = _sweep(tr, counters, "truth_table", F)
    td = _sweep(tr, counters, "truth_table", dec.f_prime)
    with tr.span("bench.oracle"):
        problems = []
        if td.bits != tf.bits:
            problems.append("decomposition computes another function")
        for lo, hi in dec.blocks:
            if any(dec.f_prime.gates[g].kind == NOT for g in range(lo, hi + 1)):
                problems.append("a block holds a negation")
                break
        for r in reps:
            if not r.holds or r.ec_restricted > r.ec + r.depth:
                problems.append(f"restricted EC {r.ec_restricted} > {r.ec} + {r.depth}")
        for x in inst.samples:
            if semantics.evaluate(F, x).energy > reps[0].ec:
                problems.append(f"input {x} fires more than EC {reps[0].ec}")
    return problems


def run_readonce(inst: Instance, tr, counters) -> list[str]:
    F = _parse(tr, counters, inst.data["text"], formula=True)
    rep = tr.call("formulas.readonce_leafneg_energy", formulas.readonce_leafneg_energy, F)
    with tr.span("bench.oracle"):
        leaves = sum(1 for g in F.gates if g.kind == INPUT)
        vals = semantics.evaluate(F, rep.witness_input).gate_values
        fired = sum(v for g, v in zip(F.gates, vals) if g.kind in (AND, OR))
        problems = []
        if rep.ec != leaves - 1:
            problems.append(f"read-once EC {rep.ec} != L-1 = {leaves - 1}")
        if fired != rep.ec:
            problems.append(f"witness fires {fired} binary gates, EC says {rep.ec}")
    return problems


def run_table(inst: Instance, tr, counters) -> list[str]:
    text = inst.data["text"]
    counters["textio.bytes_parsed"] += len(text)
    f = tr.call("textio.parse_truth_table", textio.parse_truth_table, text)
    c = tr.call("synth.compile_truth_table", synth.compile_truth_table, f)
    counters["synth.gates_out"] += len(c.gates)
    t = _sweep(tr, counters, "truth_table", c)
    e = _sweep(tr, counters, "energy_exhaustive", c)
    with tr.span("bench.oracle"):
        n = inst.n
        problems = _energy_problems(c, e, inst.samples, "compiled table")
        if t.bits != inst.data["bits"]:
            problems.append("compiled circuit computes another function")
        if e.ec > 3 * n - 1:
            problems.append(f"EC {e.ec} > 3n-1 = {3 * n - 1}")
    return problems


# --------------------------------------------------------------------------

PIPELINES = {
    "tree": run_tree,
    "merge": run_merge,
    "sweep": run_sweep,
    "nonskew": run_nonskew,
    "certify": run_certify,
    "kw": run_kw,
    "formula": run_formula,
    "readonce": run_readonce,
    "table": run_table,
}

_BUILDERS = {"dtree-compile": _build_dtree, "wide-sweep": _build_wide, "small-certify": _build_small}
WORKLOADS = tuple(_BUILDERS)


def build(workload: str, seed: int, st, tiny: bool = False) -> Cycle:
    """One cycle of the workload's fixed mix, generated from ``seed``.
    ``tiny`` shrinks every class to a handful of small instances (tests)."""
    return _BUILDERS[workload](seed, st, tiny)

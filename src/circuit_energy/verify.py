"""Desk-scale verification of every inequality the toolkit implements.

Each check sweeps an exhaustive or seeded corpus, re-derives the claimed
bound from first principles (truth tables, energy sweeps, oracle decision
trees), and reports violations with witnesses.  ``full`` level is the
acceptance configuration; ``smoke`` runs the same logic on a small slice.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from time import perf_counter

import numpy as np

from .bounds import check_psens_bound, dt_from_patterns, find_positive_path
from .corpus import (
    CIRCUIT,
    DTREE,
    FORMULA,
    MONOTONE,
    READONCE_LEAFNEG,
    GenSpec,
    fixture,
    generate,
    generate_nonskew,
)
from .formulas import (
    decompose_gk,
    nonskew_energy_estimate,
    readonce_leafneg_energy,
    restriction_energy_check,
)
from .ir import (
    AND,
    CONST,
    FANIN2,
    INPUT,
    NOT,
    OR,
    UNBOUNDED,
    Circuit,
    DecisionTree,
    Gate,
    dt_depth_of,
    not_gate,
    structural_stats,
)
from .kw import make_instance, run_protocol
from .semantics import (
    TruthTable,
    energies,
    energy_exhaustive,
    evaluate,
    gate_masks,
    psens,
    psens_at,
    truth_table,
    var_masks,
)
from .synth import compile_truth_table, dt_to_circuit, fanin2_reduce, minterm_cascade

SMOKE = "smoke"
FULL = "full"


@dataclass(slots=True)
class CheckResult:
    check_id: str
    claim: str
    instances_tried: int
    violations: int
    failures: list[str]
    extremal_witness: str | None
    seconds: float

    @property
    def ok(self) -> bool:
        return self.violations == 0

    def line(self) -> str:
        # a check that tried nothing has shown nothing
        tag = "FAIL" if not self.ok else "PASS" if self.instances_tried else "SKIP"
        return (
            f"[{tag}] {self.check_id}: {self.claim} "
            f"({self.instances_tried} instances, {self.violations} violations, "
            f"{self.seconds:.1f}s)"
        )


@dataclass(slots=True)
class Report:
    suite: str
    checks: list[CheckResult]
    wall_time: float

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def to_dict(self) -> dict:
        return asdict(self)


class _Tally:
    """Instance counter that keeps the first few failure messages."""

    def __init__(self) -> None:
        self.tried = 0
        self.violations = 0
        self.failures: list[str] = []

    def add(self, problems: list[str], label: str) -> None:
        self.tried += 1
        if problems:
            self.violations += 1
            if len(self.failures) < 5:
                self.failures.append(f"{label}: {'; '.join(problems)}")

    def result(
        self, check_id: str, claim: str, witness: str | None, t0: float
    ) -> CheckResult:
        return CheckResult(
            check_id,
            claim,
            self.tried,
            self.violations,
            self.failures,
            witness,
            perf_counter() - t0,
        )


# --------------------------------------------------------------------------
# shared corpora


def _dt_bits(node, n: int, memo: dict) -> int:
    """Truth table bits of a decision-tree node, memoized structurally (the
    corpus shares subtrees heavily, and id()-keyed caching would go stale as
    enumerated root tuples are garbage collected and their ids recycled)."""
    full = (1 << (1 << n)) - 1
    if isinstance(node, int):
        return full if node else 0
    got = memo.get(node)
    if got is not None:
        return got
    v, lo, hi = node
    mv = var_masks(n)[v]
    out = ((full ^ mv) & _dt_bits(lo, n, memo)) | (mv & _dt_bits(hi, n, memo))
    memo[node] = out
    return out


def _all_reduced_trees(num_vars: int, depth: int):
    """Every reduced decision tree of the given depth budget, plus the count
    the closed form 2 + k*T(d-1, k-1)^2 predicts."""
    cache: dict[tuple[tuple[int, ...], int], list] = {}

    def trees(avail: tuple[int, ...], d: int) -> list:
        key = (avail, d)
        got = cache.get(key)
        if got is not None:
            return got
        out: list = [0, 1]
        if d > 0:
            for v in avail:
                rest = tuple(u for u in avail if u != v)
                subs = trees(rest, d - 1)
                out.extend((v, lo, hi) for lo in subs for hi in subs)
        cache[key] = out
        return out

    def predicted(d: int, k: int) -> int:
        if d == 0 or k == 0:
            return 2
        return 2 + k * predicted(d - 1, k - 1) ** 2

    def enumerate_lazy():
        yield 0
        yield 1
        avail = tuple(range(num_vars))
        for v in avail:
            rest = tuple(u for u in avail if u != v)
            subs = trees(rest, depth - 1)
            for lo in subs:
                for hi in subs:
                    yield (v, lo, hi)

    return enumerate_lazy(), predicted(depth, num_vars), cache


def _tree_cases(level: str, tally: _Tally):
    """Every tree the two tree checks compile, as (label, n, root, depth,
    truth-table bits): all reduced trees of the exhaustive corpus, labelled
    by their 0-based enumeration index, then the seeded random DTREE trees.
    An enumeration that disagrees with the closed form is a violation."""
    n_exh, depth, rand = (3, 2, 50) if level == SMOKE else (4, 3, 500)
    exhaustive, expected, _ = _all_reduced_trees(n_exh, depth)
    memo: dict = {}  # _dt_bits keys by node alone, so one memo per n
    k = -1
    for k, root in enumerate(exhaustive):
        yield f"tree {k}", n_exh, root, dt_depth_of(root), _dt_bits(root, n_exh, memo)
    if k + 1 != expected:
        tally.add([f"enumerated {k + 1} trees, closed form says {expected}"], "enumeration")
    memo = {}
    for s in range(rand):
        root = generate(GenSpec(seed=s, num_vars=8, size_budget=6, shape=DTREE)).root
        yield f"random tree seed={s}", 8, root, dt_depth_of(root), _dt_bits(root, 8, memo)


def _psens_specs(level: str) -> list[GenSpec]:
    count = 100 if level == SMOKE else 1000
    return [
        GenSpec(
            seed=s,
            num_vars=2 + s % 7,
            size_budget=5 + (s * 7) % 36,
            neg_density=((s * 13) % 8) / 16.0,
            shape=CIRCUIT,
            fanin_mode=FANIN2,
        )
        for s in range(count)
    ]


# --------------------------------------------------------------------------
# the checks


def check_compile_all_functions(level: str = FULL, cap_n: int | None = None) -> CheckResult:
    claim = "every n-variable function compiles to an equivalent circuit with EC <= 3n-1"
    t0 = perf_counter()
    tally = _Tally()
    ns = [3] if level == SMOKE else [3, 4]
    if cap_n is not None:
        ns = [n for n in ns if n <= cap_n]
    worst = (-1, None)
    for n in ns:
        bound = 3 * n - 1
        for bits in range(1 << (1 << n)):
            c = compile_truth_table(TruthTable(n, bits))
            problems = []
            if truth_table(c).bits != bits:
                problems.append("computes the wrong function")
            ec = energy_exhaustive(c).ec
            if ec > bound:
                problems.append(f"EC={ec} > {bound}")
            if ec > worst[0]:
                worst = (ec, f"n={n} bits={bits:#x} EC={ec}")
            tally.add(problems, f"n={n} bits={bits:#x}")
    return tally.result("compile-all-functions", claim, worst[1], t0)


def check_cascade_taps(level: str = FULL, cap_n: int | None = None) -> CheckResult:
    claim = "the minterm cascade fires exactly one tap per input, energy <= 2n-1"
    t0 = perf_counter()
    tally = _Tally()
    top = 6 if level == SMOKE else 10
    if cap_n is not None:
        top = min(top, cap_n)
    worst = None
    for n in range(1, top + 1):
        mc = minterm_cascade(n)
        masks = gate_masks(mc.circuit)
        problems = []
        for j, tap in enumerate(mc.taps):
            if masks[tap] != 1 << j:
                problems.append(f"tap {j} fires on the wrong inputs")
                break
        rep = energy_exhaustive(mc.circuit)
        if rep.ec > 2 * n - 1:
            problems.append(f"EC={rep.ec} > {2 * n - 1}")
        if n == 1 and rep.ec != 1:
            problems.append(f"n=1 EC={rep.ec} != 1")
        worst = f"n={n} EC={rep.ec} argmax={rep.argmax_input}"
        tally.add(problems, f"n={n}")
    return tally.result("cascade-taps", claim, worst, t0)


def check_tree_compile(level: str = FULL, cap_n: int | None = None) -> CheckResult:
    claim = (
        "depth-d trees compile with <= d negations, EC <= 2d^2, OR fan-in 2, "
        "AND fan-in <= d+2, no literal-fed OR"
    )
    t0 = perf_counter()
    tally = _Tally()
    worst = (-1, None)
    for label, n, root, d, bits in _tree_cases(level, tally):
        c = dt_to_circuit(DecisionTree(n, root)).circuit
        problems = []
        if truth_table(c).bits != bits:
            problems.append("not equivalent to the tree")
        negs = sum(1 for g in c.gates if g.kind == NOT)
        if negs > d:
            problems.append(f"negations {negs} > depth {d}")
        for g in c.gates:
            if g.kind == OR:
                if len(g.children) != 2:
                    problems.append(f"OR fan-in {len(g.children)}")
                for ch in g.children:
                    if c.gates[ch].kind in (INPUT, NOT):
                        problems.append("OR fed by a literal")
                        break
            elif g.kind == AND and len(g.children) > d + 2:
                problems.append(f"AND fan-in {len(g.children)} > {d + 2}")
        ec = energy_exhaustive(c).ec
        if ec > 2 * d * d:
            problems.append(f"EC={ec} > {2 * d * d}")
        if ec > worst[0]:
            worst = (ec, f"tree={root!r} d={d} EC={ec}")
        tally.add(problems, label)
    return tally.result("tree-compile", claim, worst[1], t0)


def check_tree_fanin2(level: str = FULL, cap_n: int | None = None) -> CheckResult:
    claim = "the fan-in-2 expansion of compiled trees keeps equivalence with EC <= 2d^2(d+1)"
    t0 = perf_counter()
    tally = _Tally()
    worst = (-1, None)
    for label, n, root, d, bits in _tree_cases(level, tally):
        c2 = fanin2_reduce(dt_to_circuit(DecisionTree(n, root)))
        problems = []
        if c2.max_fanin() > 2:
            problems.append(f"fan-in {c2.max_fanin()}")
        if truth_table(c2).bits != bits:
            problems.append("not equivalent to the tree")
        ec = energy_exhaustive(c2).ec
        bound = 2 * d * d * (d + 1)
        if ec > bound:
            problems.append(f"EC={ec} > {bound}")
        if ec > worst[0]:
            worst = (ec, f"tree={root!r} d={d} EC={ec}")
        tally.add(problems, label)
    return tally.result("tree-fanin2", claim, worst[1], t0)


def check_psens_floor(level: str = FULL, cap_n: int | None = None) -> CheckResult:
    claim = "(c+1)*EC >= psens(f) on fan-in-c circuits; conjunctions need EC >= k/3"
    t0 = perf_counter()
    tally = _Tally()
    worst = (-1.0, None)
    for spec in _psens_specs(level):
        c = generate(spec)
        rep = check_psens_bound(c)
        problems = [] if rep.holds else [
            f"(c+1)*EC = {(rep.fanin_bound + 1) * rep.ec} < psens = {rep.psens}"
        ]
        if rep.ec and rep.psens / rep.ec > worst[0]:
            worst = (rep.psens / rep.ec, f"seed={spec.seed} psens={rep.psens} EC={rep.ec}")
        tally.add(problems, f"seed={spec.seed}")
    top = 6 if level == SMOKE else 9
    for k in range(2, top + 1):
        c = fixture(f"and_tree({k})")
        rep = check_psens_bound(c)
        sens = psens(truth_table(c))
        problems = []
        if sens.value != k:
            problems.append(f"psens={sens.value} != {k}")
        if 3 * rep.ec < k:
            problems.append(f"3*EC = {3 * rep.ec} < {k}")
        if not rep.holds:
            problems.append("bound violated")
        tally.add(problems, f"and_tree({k})")
    return tally.result("psens-floor", claim, worst[1], t0)


def check_positive_paths(level: str = FULL, cap_n: int | None = None) -> CheckResult:
    claim = (
        "every positively sensitive index admits an all-firing gate chain from "
        "its input to the output or a negation feeder"
    )
    t0 = perf_counter()
    tally = _Tally()
    longest = (-1, None)
    for spec in _psens_specs(level):
        c = generate(spec)
        f = truth_table(c)
        consumers = c.consumers()
        for a_int in range(1 << c.num_vars):
            a = tuple((a_int >> i) & 1 for i in range(c.num_vars))
            for i in sorted(psens_at(f, a)):
                problems = []
                try:
                    path = find_positive_path(c, a, i)
                except Exception as exc:  # noqa: BLE001 - any failure is a violation
                    tally.add([f"x{i}: {exc}"], f"seed={spec.seed} a={a_int:#x}")
                    continue
                vals = evaluate(c, a).gate_values
                ids = path.gate_ids
                start = c.gates[ids[0]]
                if start.kind != INPUT or start.arg != i:
                    problems.append("path does not start at the queried input")
                if any(vals[g] == 0 for g in ids):
                    problems.append("a path gate does not fire")
                for g, h in zip(ids, ids[1:]):
                    if g not in c.gates[h].children:
                        problems.append("consecutive path gates are not wired")
                        break
                if path.terminal == "ROOT":
                    if ids[-1] != c.output:
                        problems.append("ROOT path does not end at the output")
                else:
                    nid = path.not_gate_id
                    if (
                        nid is None
                        or c.gates[nid].kind != NOT
                        or ids[-1] not in c.gates[nid].children
                        or nid not in consumers[ids[-1]]
                    ):
                        problems.append("FEEDS_NOT path does not feed the named NOT")
                if len(ids) > longest[0]:
                    longest = (len(ids), f"seed={spec.seed} a={a_int:#x} x{i} len={len(ids)}")
                tally.add(problems, f"seed={spec.seed} a={a_int:#x} x{i}")
    return tally.result("positive-paths", claim, longest[1], t0)


def check_pattern_tree(level: str = FULL, cap_n: int | None = None) -> CheckResult:
    claim = (
        "firing-pattern extraction: tree equivalent, depth <= maxFanin*patterns, "
        "patterns <= size^EC + 1, and DT(f) <= maxFanin*patterns"
    )
    t0 = perf_counter()
    tally = _Tally()
    count = 60 if level == SMOKE else 500
    worst = (-1, None)
    for s in range(count):
        spec = GenSpec(
            seed=s,
            num_vars=2 + s % 4,
            size_budget=3 + (s * 3) % 12,
            neg_density=(s % 5) / 8.0,
            shape=CIRCUIT,
            fanin_mode=FANIN2 if s % 2 == 0 else UNBOUNDED,
        )
        c = generate(spec)
        rep = dt_from_patterns(c)
        problems = []
        n = c.num_vars
        memo: dict = {}
        if _dt_bits(rep.extracted_tree.root, n, memo) != truth_table(c).bits:
            problems.append("extracted tree differs from the circuit")
        depth = dt_depth_of(rep.extracted_tree.root)
        budget = rep.max_fanin * rep.pattern_count
        if depth > budget:
            problems.append(f"depth {depth} > {budget}")
        if rep.pattern_count > rep.size**rep.energy + 1:
            problems.append(
                f"patterns {rep.pattern_count} > {rep.size}^{rep.energy} + 1"
            )
        if rep.dt_oracle is not None and rep.dt_oracle > budget:
            problems.append(f"DT(f) = {rep.dt_oracle} > {budget}")
        if rep.pattern_count > worst[0]:
            worst = (rep.pattern_count, f"seed={s} patterns={rep.pattern_count}")
        tally.add(problems, f"seed={s}")
    return tally.result("pattern-tree", claim, worst[1], t0)


def _negation_equivalent(c: Circuit, rng: np.random.Generator) -> Circuit:
    """Equivalent circuit with negations: coin-flip double-negation wraps and
    De Morgan rewrites of binary gates."""
    gates: list[Gate] = []
    remap: dict[int, int] = {}
    for gid, g in enumerate(c.gates):
        if g.kind in (INPUT, CONST):
            gates.append(g)
        elif g.kind == NOT:
            gates.append(not_gate(remap[g.children[0]]))
        else:
            kids = tuple(remap[ch] for ch in g.children)
            if rng.random() < 0.5:
                inner = []
                for ch in kids:
                    gates.append(not_gate(ch))
                    inner.append(len(gates) - 1)
                gates.append(Gate(OR if g.kind == AND else AND, tuple(inner)))
                gates.append(not_gate(len(gates) - 1))
            else:
                gates.append(Gate(g.kind, kids))
        remap[gid] = len(gates) - 1
        if g.kind != INPUT and rng.random() < 0.15:
            gates.append(not_gate(remap[gid]))
            gates.append(not_gate(len(gates) - 1))
            remap[gid] = len(gates) - 1
    return Circuit(c.num_vars, gates, remap[c.output], c.fanin_mode)


def check_kw_bits(level: str = FULL, cap_n: int | None = None) -> CheckResult:
    claim = (
        "the game transcript returns a separating index with "
        "aliceBits <= EC(C, a') * ceil(log2 c)"
    )
    t0 = perf_counter()
    tally = _Tally()
    want = 20 if level == SMOKE else 200
    pairs_per = 10 if level == SMOKE else 50
    worst = (-1, None)
    s = 0
    found = 0
    while found < want:
        spec = GenSpec(
            seed=s,
            num_vars=2 + s % 6,
            size_budget=4 + (s * 5) % 20,
            shape=MONOTONE,
            fanin_mode=FANIN2,
        )
        s += 1
        c = generate(spec)
        f = truth_table(c)
        ones = [j for j in range(1 << c.num_vars) if f.value(j)]
        zeros = [j for j in range(1 << c.num_vars) if not f.value(j)]
        if not ones or not zeros:
            continue
        found += 1
        rng = np.random.Generator(np.random.Philox(10_000 + s))
        twisted = _negation_equivalent(c, np.random.Generator(np.random.Philox(20_000 + s)))
        if truth_table(twisted).bits != f.bits:
            tally.add(["negation rewrite changed the function"], f"seed={spec.seed}")
            continue
        for _ in range(pairs_per):
            a_int = int(rng.choice(ones))
            b_int = int(rng.choice(zeros))
            a = tuple((a_int >> i) & 1 for i in range(c.num_vars))
            b = tuple((b_int >> i) & 1 for i in range(c.num_vars))
            for tag, circ in (("plain", c), ("negated", twisted)):
                problems = []
                tr = run_protocol(make_instance(circ, a, b))
                if not (a[tr.result] == 1 and b[tr.result] == 0):
                    problems.append(f"index {tr.result} does not separate")
                ec_here = evaluate(circ, tr.minimized_input).energy
                if tr.alice_bits > ec_here * tr.addr_bits:
                    problems.append(
                        f"aliceBits {tr.alice_bits} > {ec_here}*{tr.addr_bits}"
                    )
                if tr.repairs:
                    problems.append(f"{tr.repairs} repair walks")
                if tr.alice_bits > worst[0]:
                    worst = (
                        tr.alice_bits,
                        f"seed={spec.seed} {tag} a={a_int:#x} b={b_int:#x} "
                        f"alice={tr.alice_bits} EC={ec_here}",
                    )
                tally.add(problems, f"seed={spec.seed} {tag} a={a_int:#x} b={b_int:#x}")
    return tally.result("kw-bits", claim, worst[1], t0)


def check_formula_blocks(level: str = FULL, cap_n: int | None = None) -> CheckResult:
    claim = (
        "restrictions cost <= Depth extra; the block decomposition meets its "
        "envelopes; EC >= L/(5negs-2) - Depth - 2 and EC >= negs"
    )
    t0 = perf_counter()
    tally = _Tally()
    want = 60 if level == SMOKE else 500
    worst = (-1, None)
    s = 0
    found = 0
    while found < want:
        spec = GenSpec(
            seed=s,
            num_vars=2 + s % 7,
            size_budget=4 + (s * 3) % 21,
            neg_density=0.3,
            shape=FORMULA,
        )
        s += 1
        F = generate(spec)
        st = structural_stats(F)
        if not 1 <= st.negs <= 4:
            continue
        found += 1
        problems = []
        ec = energy_exhaustive(F).ec
        L = F.leaves()
        for gid in range(len(F.gates)):
            if gid == F.output:
                continue
            for b in (0, 1):
                rep = restriction_energy_check(F, gid, b)
                if not rep.holds:
                    problems.append(
                        f"restriction g{gid}:={b} EC {rep.ec_restricted} > {rep.ec}+{rep.depth}"
                    )
                    break
            else:
                continue
            break
        dec = decompose_gk(F)
        skeleton_budget = 5 * st.negs - 2
        if truth_table(dec.f_prime).bits != truth_table(F).bits:
            problems.append("decomposition changed the function")
        if dec.f_prime.leaves() > 2 * L:
            problems.append(f"L' = {dec.f_prime.leaves()} > 2L = {2 * L}")
        if dec.block_count > skeleton_budget:
            problems.append(f"T = {dec.block_count} > {skeleton_budget}")
        covered = set()
        for lo, hi in dec.blocks:
            covered.update(range(lo, hi + 1))
            if any(dec.f_prime.gates[g].kind == NOT for g in range(lo, hi + 1)):
                problems.append("a block contains a negation")
                break
        if any(
            g.kind == INPUT and gid not in covered
            for gid, g in enumerate(dec.f_prime.gates)
        ):
            problems.append("a leaf sits outside every block")
        ec_prime = energy_exhaustive(dec.f_prime).ec
        depth = st.depth
        if ec_prime > skeleton_budget * (ec + depth + 1):
            problems.append(
                f"EC(F') = {ec_prime} > {skeleton_budget}*({ec}+{depth}+1)"
            )
        if ec * skeleton_budget < L - (depth + 2) * skeleton_budget:
            problems.append(
                f"EC*{skeleton_budget} = {ec * skeleton_budget} < "
                f"{L} - ({depth}+2)*{skeleton_budget}"
            )
        if ec < st.negs:
            problems.append(f"EC = {ec} < negations = {st.negs}")
        if dec.block_count > worst[0]:
            worst = (dec.block_count, f"seed={spec.seed} T={dec.block_count} negs={st.negs}")
        tally.add(problems, f"seed={spec.seed}")
    return tally.result("formula-blocks", claim, worst[1], t0)


def check_readonce_exact(level: str = FULL, cap_n: int | None = None) -> CheckResult:
    claim = "read-once formulas with leaf negations spend exactly leafCount - 1"
    t0 = perf_counter()
    tally = _Tally()
    count = 40 if level == SMOKE else 200
    worst = None
    for s in range(count):
        L = 2 + s % 15
        F = generate(
            GenSpec(
                seed=s,
                num_vars=L,
                size_budget=L,
                neg_density=0.35,
                shape=READONCE_LEAFNEG,
            )
        )
        rep = readonce_leafneg_energy(F)
        problems = (
            []
            if rep.equal
            else [f"EC = {rep.ec} != L-1 = {rep.leaf_count - 1}"]
        )
        worst = f"seed={s} L={rep.leaf_count} EC={rep.ec}"
        tally.add(problems, f"seed={s}")
    return tally.result("readonce-exact", claim, worst, t0)


def check_monotone_peak(level: str = FULL, cap_n: int | None = None) -> CheckResult:
    claim = "negation-free circuits fire every binary gate on the all-ones input: EC = size"
    t0 = perf_counter()
    tally = _Tally()
    count = 40 if level == SMOKE else 200
    worst = None
    for s in range(count):
        spec = GenSpec(
            seed=s,
            num_vars=2 + s % 7,
            size_budget=3 + (s * 11) % 30,
            shape=MONOTONE,
            fanin_mode=FANIN2 if s % 2 == 0 else UNBOUNDED,
        )
        c = generate(spec)
        size = structural_stats(c).size
        problems = []
        ec = energy_exhaustive(c).ec
        allones = evaluate(c, (1,) * c.num_vars).energy
        if ec != size:
            problems.append(f"EC = {ec} != size = {size}")
        if allones != size:
            problems.append(f"energy(1^n) = {allones} != size = {size}")
        worst = f"seed={s} size={size}"
        tally.add(problems, f"seed={s}")
    return tally.result("monotone-peak", claim, worst, t0)


def check_parity_dnf(level: str = FULL, cap_n: int | None = None) -> CheckResult:
    claim = "the shared-negation parity DNF computes parity with EC <= n+2"
    t0 = perf_counter()
    tally = _Tally()
    top = 3 if level == SMOKE else 4
    worst = None
    for n in range(2, top + 1):
        c = fixture(f"parity{n}_dnf")
        want = 0
        for j in range(1 << n):
            if bin(j).count("1") % 2 == 1:
                want |= 1 << j
        problems = []
        if truth_table(c).bits != want:
            problems.append("not the parity function")
        ec = energy_exhaustive(c).ec
        if ec > n + 2:
            problems.append(f"EC = {ec} > {n + 2}")
        worst = f"n={n} EC={ec}"
        tally.add(problems, f"n={n}")
    return tally.result("parity-dnf", claim, worst, t0)


def check_nonskew_floor(level: str = FULL, cap_n: int | None = None) -> CheckResult:
    claim = "skew-free mean energy >= t/4; Monte Carlo agrees within 3 standard errors"
    t0 = perf_counter()
    tally = _Tally()
    count = 20 if level == SMOKE else 100
    worst = (-1.0, None)
    for s in range(count):
        n = 2 + s % 11
        L = 4 + 2 * (s % 9)
        F = generate_nonskew(s, n, L)
        stats = nonskew_energy_estimate(F, samples=4000, seed=7919 * s + 17)
        problems = []
        if 4 * stats.exact_energy_total < stats.t * (1 << n):
            problems.append(
                f"4*sum = {4 * stats.exact_energy_total} < t*2^n = {stats.t * (1 << n)}"
            )
        table = energies(F).astype(np.float64)
        sigma = float(table.std())
        if sigma == 0.0:
            if stats.empirical_mean_energy != stats.exact_mean:
                problems.append("zero-variance formula but the sample mean differs")
        else:
            se = sigma / math.sqrt(stats.sample_count)
            gap = abs(stats.empirical_mean_energy - stats.exact_mean)
            if gap > 3 * se:
                problems.append(f"|MC - exact| = {gap:.4f} > 3*SE = {3 * se:.4f}")
        ratio = stats.exact_mean / max(stats.lower_envelope, 0.25)
        if ratio > worst[0]:
            worst = (ratio, f"seed={s} mean={stats.exact_mean:.3f} t/4={stats.lower_envelope}")
        tally.add(problems, f"seed={s}")
    return tally.result("nonskew-floor", claim, worst[1], t0)


# --------------------------------------------------------------------------
# the suite

CHECKS = {
    "compile-all-functions": check_compile_all_functions,
    "cascade-taps": check_cascade_taps,
    "tree-compile": check_tree_compile,
    "tree-fanin2": check_tree_fanin2,
    "psens-floor": check_psens_floor,
    "positive-paths": check_positive_paths,
    "pattern-tree": check_pattern_tree,
    "kw-bits": check_kw_bits,
    "formula-blocks": check_formula_blocks,
    "readonce-exact": check_readonce_exact,
    "monotone-peak": check_monotone_peak,
    "parity-dnf": check_parity_dnf,
    "nonskew-floor": check_nonskew_floor,
}


def run_all(
    level: str = FULL,
    cap_n: int | None = None,
    only: list[str] | None = None,
    report_line=None,
) -> Report:
    t0 = perf_counter()
    names = list(CHECKS) if not only else [n for n in CHECKS if n in set(only)]
    checks = []
    for name in names:
        res = CHECKS[name](level, cap_n)
        checks.append(res)
        if report_line is not None:
            report_line(res.line())
    return Report(level, checks, perf_counter() - t0)

"""Desk-scale verification of every inequality the toolkit implements.

Each check sweeps an exhaustive or seeded corpus, re-derives the claimed
bound from first principles (truth tables, energy sweeps, oracle decision
trees), and reports violations with witnesses.  ``full`` level is the
acceptance configuration; ``smoke`` runs the same logic on a small slice.

A check is its claim, ``cases(level)``, which yields ``(label, n, payload)``,
and ``judge(payload)``, which returns ``(problems, score, witness)``.  The
driver, ``run_all``, owns the rest.  It counts instances and violations and
keeps the first five failures as ``"<label>: <problems>"``.  The extremal
witness is that of the first case with the strictly largest score (a judge
may return no score; ``witness()`` renders the string and runs only for a new
maximum).  With ``cap_n``, a case with n > cap_n is dropped before any judge
runs.  Checks that share a ``cases`` function share one walk of it: each case
is made once and every selected check judges it.  The walk's own time is
charged to the group's first check and each judge's time to its own check.
A case whose payload is ``_Invalid`` says the corpus itself is wrong and
counts as a violation of every check in its walk.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterator
from dataclasses import asdict, dataclass
from functools import cached_property
from itertools import product
from time import perf_counter
from typing import TYPE_CHECKING, Any

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
    bounded,
    dt_depth_of,
    fold,
    not_gate,
    restrict,
    structural_stats,
)
from .kw import make_instance, run_protocol
from .semantics import (
    TruthTable,
    energy_exhaustive,
    evaluate,
    gate_masks,
    psens,
    psens_at,
    truth_table,
    var_masks,
)
from .synth import (
    DtCompileResult,
    compile_truth_table,
    connector_merge,
    dt_to_circuit,
    fanin2_reduce,
    minterm_cascade,
)

if TYPE_CHECKING:
    import numpy as np

SMOKE = "smoke"
FULL = "full"

Verdict = tuple[list[str], float | None, Callable[[], str] | None]


@dataclass(frozen=True, slots=True)
class Check:
    check_id: str
    claim: str
    cases: Callable[[str], Iterator[tuple[str, int, Any]]]
    judge: Callable[[Any], Verdict]


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


CHECKS: dict[str, Check] = {}


def _check(check_id: str, cases: Callable[[str], Iterator], claim: str):
    """Register the decorated judge as a check; the suite runs in this order."""

    def register(judge):
        CHECKS[check_id] = Check(check_id, claim, cases, judge)
        return judge

    return register


class _Invalid(str):
    """A case payload saying that the corpus itself is wrong."""


def _point(x: int, n: int) -> tuple[int, ...]:
    """Input number x as a 0/1 tuple, x0 first."""
    return tuple((x >> i) & 1 for i in range(n))


# --------------------------------------------------------------------------
# shared corpora


def _dt_bits(node, n: int, memo: dict) -> int:
    """Truth table bits of a decision-tree node, memoized structurally (the
    corpus shares subtrees heavily, and id()-keyed caching would go stale as
    enumerated root tuples are garbage collected and their ids recycled).
    Each node is looked up once: a leaf or a memoized node is a leaf of the
    fold, and a root whose branches are both known is joined without one.
    Only the branches the fold joins are stored, not ``node`` itself: a
    corpus root almost never recurs as a later root's branch, so storing
    roots would keep every tree of a walk alive."""
    full = (1 << (1 << n)) - 1
    masks = var_masks(n)

    def known(t):
        """The bits of a leaf or of a memoized node, else None."""
        return (full if t else 0) if isinstance(t, int) else memo.get(t)

    hit = None  # what the last expand found; a leaf's join follows its expand

    def expand(t):
        nonlocal hit
        hit = known(t)
        return () if hit is not None else t[1:]

    def join(t, branches) -> int:
        if not branches:
            return hit
        mv = masks[t[0]]
        out = memo[t] = ((full ^ mv) & branches[0]) | (mv & branches[1])
        return out

    got = known(node)
    if got is not None:
        return got
    lo, hi = known(node[1]), known(node[2])
    if lo is None:
        lo = fold(node[1], expand, join)
    if hi is None:
        hi = fold(node[2], expand, join)
    mv = masks[node[0]]
    return ((full ^ mv) & lo) | (mv & hi)


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


@dataclass
class _Tree:
    """One corpus tree.  Its compile is made on first use and then shared by
    both tree checks, so a dropped case costs no compile."""

    n: int
    root: Any
    bits: int

    @cached_property
    def compiled(self) -> DtCompileResult:
        return dt_to_circuit(DecisionTree(self.n, self.root))


def _tree_cases(level: str):
    """Every tree the two tree checks compile: all reduced trees of the
    exhaustive corpus, labelled by their 0-based enumeration index, then the
    seeded random DTREE trees.  An enumeration that disagrees with the
    closed form is a violation."""
    n_exh, depth, rand = (3, 2, 50) if level == SMOKE else (4, 3, 500)
    exhaustive, expected, _ = _all_reduced_trees(n_exh, depth)
    memo: dict = {}  # _dt_bits keys by node alone, so one memo per n
    k = -1
    for k, root in enumerate(exhaustive):
        yield f"tree {k}", n_exh, _Tree(n_exh, root, _dt_bits(root, n_exh, memo))
    if k + 1 != expected:
        miscount = f"enumerated {k + 1} trees, closed form says {expected}"
        yield "enumeration", n_exh, _Invalid(miscount)
    memo = {}
    for s in range(rand):
        root = generate(GenSpec(seed=s, num_vars=8, size_budget=6, shape=DTREE)).root
        yield f"random tree seed={s}", 8, _Tree(8, root, _dt_bits(root, 8, memo))


def _psens_specs(level: str) -> list[GenSpec]:
    count = 100 if level == SMOKE else 1000
    return [
        GenSpec(seed=s, num_vars=2 + s % 7, size_budget=5 + (s * 7) % 36,
                neg_density=((s * 13) % 8) / 16.0, shape=CIRCUIT, fanin_mode=FANIN2)
        for s in range(count)
    ]


# --------------------------------------------------------------------------
# the checks, in suite order: each judge under its claim and cases


def _function_cases(level: str):
    for n in [3] if level == SMOKE else [3, 4]:
        for bits in range(1 << (1 << n)):
            yield f"n={n} bits={bits:#x}", n, TruthTable(n, bits)


@_check("compile-all-functions", _function_cases,
        "every n-variable function compiles to an equivalent circuit with EC <= 3n-1")
def _judge_function(f: TruthTable) -> Verdict:
    n, bits = f.num_vars, f.bits
    c = compile_truth_table(f)
    problems = []
    if truth_table(c).bits != bits:
        problems.append("computes the wrong function")
    ec = energy_exhaustive(c).ec
    if ec > 3 * n - 1:
        problems.append(f"EC={ec} > {3 * n - 1}")
    return problems, ec, lambda: f"n={n} bits={bits:#x} EC={ec}"


@_check("cascade-taps",
        lambda level: ((f"n={n}", n, n) for n in range(1, 7 if level == SMOKE else 11)),
        "the minterm cascade fires exactly one tap per input, energy <= 2n-1")
def _judge_cascade(n: int) -> Verdict:
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
    return problems, rep.ec, lambda: f"n={n} EC={rep.ec} argmax={rep.argmax_input}"


@_check("tree-compile", _tree_cases,
        "depth-d trees compile with <= d negations, EC <= 2d^2, OR fan-in 2, "
        "AND fan-in <= d+2, no literal-fed OR")
def _judge_tree_compile(t: _Tree) -> Verdict:
    c, d = t.compiled.circuit, t.compiled.tree_depth
    problems = []
    if truth_table(c).bits != t.bits:
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
    return problems, ec, lambda: f"tree={t.root!r} d={d} EC={ec}"


@_check("tree-fanin2", _tree_cases,
        "the fan-in-2 expansion of compiled trees keeps equivalence with EC <= 2d^2(d+1)")
def _judge_tree_fanin2(t: _Tree) -> Verdict:
    c2, d = fanin2_reduce(t.compiled), t.compiled.tree_depth
    problems = []
    if c2.max_fanin() > 2:
        problems.append(f"fan-in {c2.max_fanin()}")
    if truth_table(c2).bits != t.bits:
        problems.append("not equivalent to the tree")
    ec = energy_exhaustive(c2).ec
    bound = 2 * d * d * (d + 1)
    if ec > bound:
        problems.append(f"EC={ec} > {bound}")
    return problems, ec, lambda: f"tree={t.root!r} d={d} EC={ec}"


def _psens_cases(level: str):
    for spec in _psens_specs(level):
        yield f"seed={spec.seed}", spec.num_vars, spec
    for k in range(2, 7 if level == SMOKE else 10):
        yield f"and_tree({k})", k, k


@_check("psens-floor", _psens_cases,
        "(c+1)*EC >= psens(f) on fan-in-c circuits; conjunctions need EC >= k/3")
def _judge_psens(case: GenSpec | int) -> Verdict:
    if isinstance(case, int):  # the conjunction of k variables
        k = case
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
        return problems, None, None
    rep = check_psens_bound(generate(case))
    problems = [] if rep.holds else [
        f"(c+1)*EC = {(rep.fanin_bound + 1) * rep.ec} < psens = {rep.psens}"
    ]
    if not rep.ec:
        return problems, None, None
    return problems, rep.psens / rep.ec, lambda: (
        f"seed={case.seed} psens={rep.psens} EC={rep.ec}"
    )


def _path_cases(level: str):
    """One case per (circuit, input, positively sensitive index)."""
    for spec in _psens_specs(level):
        c = generate(spec)
        f = truth_table(c)
        for a_int in range(1 << c.num_vars):
            for i in sorted(psens_at(f, _point(a_int, c.num_vars))):
                label = f"seed={spec.seed} a={a_int:#x} x{i}"
                yield label, c.num_vars, (label, c, a_int, i)


@_check("positive-paths", _path_cases,
        "every positively sensitive index admits an all-firing gate chain from "
        "its input to the output or a negation feeder")
def _judge_path(case) -> Verdict:
    label, c, a_int, i = case
    a = _point(a_int, c.num_vars)
    try:
        path = find_positive_path(c, a, i)
    except Exception as exc:  # noqa: BLE001 - any failure is a violation
        return [str(exc)], None, None
    problems = []
    vals = evaluate(c, a).gate_values
    ids = path.gate_ids
    start = c.gates[ids[0]]
    if start.kind != INPUT or start.arg != i:
        problems.append("path does not start at the queried input")
    if any(vals[g] == 0 for g in ids):
        problems.append("a path gate does not fire")
    if any(g not in c.gates[h].children for g, h in zip(ids, ids[1:])):
        problems.append("consecutive path gates are not wired")
    if path.terminal == "ROOT":
        if ids[-1] != c.output:
            problems.append("ROOT path does not end at the output")
    else:
        nid = path.not_gate_id
        if nid is None or c.gates[nid].kind != NOT or ids[-1] not in c.gates[nid].children:
            problems.append("FEEDS_NOT path does not feed the named NOT")
    return problems, len(ids), lambda: f"{label} len={len(ids)}"


def _pattern_cases(level: str):
    for s in range(60 if level == SMOKE else 500):
        spec = GenSpec(seed=s, num_vars=2 + s % 4, size_budget=3 + (s * 3) % 12,
                       neg_density=(s % 5) / 8.0, shape=CIRCUIT,
                       fanin_mode=FANIN2 if s % 2 == 0 else UNBOUNDED)
        yield f"seed={s}", spec.num_vars, spec


@_check("pattern-tree", _pattern_cases,
        "firing-pattern extraction: tree equivalent, depth <= maxFanin*patterns, "
        "patterns <= size^EC + 1, and DT(f) <= maxFanin*patterns")
def _judge_pattern_tree(spec: GenSpec) -> Verdict:
    c = generate(spec)
    rep = dt_from_patterns(c)
    problems = []
    if _dt_bits(rep.extracted_tree.root, c.num_vars, {}) != truth_table(c).bits:
        problems.append("extracted tree differs from the circuit")
    depth = dt_depth_of(rep.extracted_tree.root)
    budget = rep.max_fanin * rep.pattern_count
    if depth > budget:
        problems.append(f"depth {depth} > {budget}")
    if rep.pattern_count > rep.size**rep.energy + 1:
        problems.append(f"patterns {rep.pattern_count} > {rep.size}^{rep.energy} + 1")
    if rep.dt_oracle is not None and rep.dt_oracle > budget:
        problems.append(f"DT(f) = {rep.dt_oracle} > {budget}")
    return problems, rep.pattern_count, lambda: (
        f"seed={spec.seed} patterns={rep.pattern_count}"
    )


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


def _kw_cases(level: str):
    """Seeded non-constant monotone circuits, each with a negation-rewritten
    twin, and random (1-input, 0-input) pairs played on both."""
    import numpy as np

    want, pairs_per = (20, 10) if level == SMOKE else (200, 50)
    s = 0
    found = 0
    while found < want:
        spec = GenSpec(seed=s, num_vars=2 + s % 6, size_budget=4 + (s * 5) % 20,
                       shape=MONOTONE, fanin_mode=FANIN2)
        s += 1
        c = generate(spec)
        n = c.num_vars
        f = truth_table(c)
        ones = [j for j in range(1 << n) if f.value(j)]
        zeros = [j for j in range(1 << n) if not f.value(j)]
        if not ones or not zeros:
            continue
        found += 1
        rng = np.random.Generator(np.random.Philox(10_000 + s))
        twisted = _negation_equivalent(c, np.random.Generator(np.random.Philox(20_000 + s)))
        if truth_table(twisted).bits != f.bits:
            yield f"seed={spec.seed}", n, _Invalid("negation rewrite changed the function")
            continue
        for _ in range(pairs_per):
            a_int = int(rng.choice(ones))
            b_int = int(rng.choice(zeros))
            for tag, circ in (("plain", c), ("negated", twisted)):
                label = f"seed={spec.seed} {tag} a={a_int:#x} b={b_int:#x}"
                yield label, n, (label, circ, a_int, b_int)


@_check("kw-bits", _kw_cases,
        "the game transcript returns a separating index with "
        "aliceBits <= EC(C, a') * ceil(log2 c)")
def _judge_kw(case) -> Verdict:
    label, circ, a_int, b_int = case
    a = _point(a_int, circ.num_vars)
    b = _point(b_int, circ.num_vars)
    problems = []
    tr = run_protocol(make_instance(circ, a, b))
    if not (a[tr.result] == 1 and b[tr.result] == 0):
        problems.append(f"index {tr.result} does not separate")
    ec_here = evaluate(circ, tr.minimized_input).energy
    if tr.alice_bits > ec_here * tr.addr_bits:
        problems.append(f"aliceBits {tr.alice_bits} > {ec_here}*{tr.addr_bits}")
    if tr.repairs:
        problems.append(f"{tr.repairs} repair walks")
    return problems, tr.alice_bits, lambda: f"{label} alice={tr.alice_bits} EC={ec_here}"


def _formula_cases(level: str):
    """Seeded formulas with one to four negations."""
    want = 60 if level == SMOKE else 500
    s = 0
    found = 0
    while found < want:
        spec = GenSpec(seed=s, num_vars=2 + s % 7, size_budget=4 + (s * 3) % 21,
                       neg_density=0.3, shape=FORMULA)
        s += 1
        F = generate(spec)
        st = structural_stats(F)
        if 1 <= st.negs <= 4:
            found += 1
            yield f"seed={spec.seed}", spec.num_vars, (spec.seed, F, st)


@_check("formula-blocks", _formula_cases,
        "restrictions cost <= Depth extra; the block decomposition meets its "
        "envelopes; EC >= L/(5negs-2) - Depth - 2 and EC >= negs")
def _judge_formula(case) -> Verdict:
    seed, F, st = case
    problems = []
    ec = energy_exhaustive(F).ec
    L = F.leaves()
    for gid, b in product(range(len(F.gates)), (0, 1)):
        if gid == F.output:
            continue
        rep = restriction_energy_check(F, gid, b)
        if not rep.holds:
            problems.append(
                f"restriction g{gid}:={b} EC {rep.ec_restricted} > {rep.ec}+{rep.depth}"
            )
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
        problems.append(f"EC(F') = {ec_prime} > {skeleton_budget}*({ec}+{depth}+1)")
    if ec * skeleton_budget < L - (depth + 2) * skeleton_budget:
        problems.append(
            f"EC*{skeleton_budget} = {ec * skeleton_budget} < "
            f"{L} - ({depth}+2)*{skeleton_budget}"
        )
    if ec < st.negs:
        problems.append(f"EC = {ec} < negations = {st.negs}")
    return problems, dec.block_count, lambda: (
        f"seed={seed} T={dec.block_count} negs={st.negs}"
    )


def _readonce_cases(level: str):
    for s in range(40 if level == SMOKE else 200):
        L = 2 + s % 15
        spec = GenSpec(seed=s, num_vars=L, size_budget=L, neg_density=0.35,
                       shape=READONCE_LEAFNEG)
        yield f"seed={s}", L, spec


@_check("readonce-exact", _readonce_cases,
        "read-once formulas with leaf negations spend exactly leafCount - 1")
def _judge_readonce(spec: GenSpec) -> Verdict:
    F = generate(spec)
    rep = readonce_leafneg_energy(F)
    L = F.leaves()  # counted here: the report's own flag would pass a wrong EC
    problems = [] if rep.ec == L - 1 else [f"EC = {rep.ec} != L-1 = {L - 1}"]
    return problems, rep.ec, lambda: f"seed={spec.seed} L={L} EC={rep.ec}"


def _monotone_cases(level: str):
    for s in range(40 if level == SMOKE else 200):
        spec = GenSpec(seed=s, num_vars=2 + s % 7, size_budget=3 + (s * 11) % 30,
                       shape=MONOTONE, fanin_mode=FANIN2 if s % 2 == 0 else UNBOUNDED)
        yield f"seed={s}", spec.num_vars, spec


@_check("monotone-peak", _monotone_cases,
        "negation-free circuits fire every binary gate on the all-ones input: EC = size")
def _judge_monotone(spec: GenSpec) -> Verdict:
    c = generate(spec)
    size = structural_stats(c).size
    problems = []
    ec = energy_exhaustive(c).ec
    allones = evaluate(c, (1,) * c.num_vars).energy
    if ec != size:
        problems.append(f"EC = {ec} != size = {size}")
    if allones != size:
        problems.append(f"energy(1^n) = {allones} != size = {size}")
    return problems, size, lambda: f"seed={spec.seed} size={size}"


@_check("parity-dnf",
        lambda level: ((f"n={n}", n, n) for n in range(2, 4 if level == SMOKE else 5)),
        "the shared-negation parity DNF computes parity with EC <= n+2")
def _judge_parity(n: int) -> Verdict:
    c = fixture(f"parity{n}_dnf")
    problems = []
    if truth_table(c).bits != sum(1 << j for j in range(1 << n) if bin(j).count("1") % 2):
        problems.append("not the parity function")
    ec = energy_exhaustive(c).ec
    if ec > n + 2:
        problems.append(f"EC = {ec} > {n + 2}")
    return problems, ec, lambda: f"n={n} EC={ec}"


@_check("nonskew-floor",
        lambda level: ((f"seed={s}", 2 + s % 11, s) for s in range(20 if level == SMOKE else 100)),
        "skew-free mean energy >= t/4; Monte Carlo agrees within 3 standard errors")
def _judge_nonskew(s: int) -> Verdict:
    n = 2 + s % 11
    F = generate_nonskew(s, n, 4 + 2 * (s % 9))
    stats = nonskew_energy_estimate(F, samples=4000, seed=7919 * s + 17)
    problems = []
    if 4 * stats.exact_energy_total < stats.t * (1 << n):
        problems.append(
            f"4*sum = {4 * stats.exact_energy_total} < t*2^n = {stats.t * (1 << n)}"
        )
    # 2^(2n) times the variance, exactly: 2^n sum e^2 - (sum e)^2
    spread = (stats.exact_square_total << n) - stats.exact_energy_total**2
    if spread == 0:
        if stats.empirical_mean_energy != stats.exact_mean:
            problems.append("zero-variance formula but the sample mean differs")
    else:
        se = math.sqrt(spread) / (1 << n) / math.sqrt(stats.sample_count)
        gap = abs(stats.empirical_mean_energy - stats.exact_mean)
        if gap > 3 * se:
            problems.append(f"|MC - exact| = {gap:.4f} > 3*SE = {3 * se:.4f}")
    ratio = stats.exact_mean / max(stats.lower_envelope, 0.25)
    return problems, ratio, lambda: (
        f"seed={s} mean={stats.exact_mean:.3f} t/4={stats.lower_envelope}"
    )


def _merge_cases(level: str):
    """Seeded side pairs, fan-in 2 and fan-in 3 in turn, merged on every
    variable."""
    for s in range(40 if level == SMOKE else 200):
        n = 2 + s % 7
        mode = FANIN2 if s % 2 == 0 else bounded(3)
        sides = [
            generate(GenSpec(seed=2 * s + b, num_vars=n, size_budget=3 + (s * 5) % 14,
                             neg_density=(s % 4) / 8.0, shape=CIRCUIT, fanin_mode=mode))
            for b in (0, 1)
        ]
        for i in range(n):
            yield f"seed={s} x{i}", n, (s, *sides, i)


@_check("connector-merge", _merge_cases,
        "the connector merge computes (~x_i AND f0) OR (x_i AND f1) "
        "with negs = 1 + max(negs0, negs1) on the pruned sides")
def _judge_merge(case) -> Verdict:
    s, c0, c1, i = case
    n = c0.num_vars
    merged = connector_merge(c0, c1, i)
    mv = var_masks(n)[i]
    want = (~mv & truth_table(c0).bits) | (mv & truth_table(c1).bits)
    problems = []
    if truth_table(merged).bits != want:
        problems.append("not (~x_i AND f0) OR (x_i AND f1)")
    negs = structural_stats(merged).negs
    sides = [structural_stats(restrict(c, {})).negs for c in (c0, c1)]
    if negs != 1 + max(sides):
        problems.append(f"negs {negs} != 1 + max{tuple(sides)}")
    return problems, negs, lambda: f"seed={s} x{i} negs={negs}"


# --------------------------------------------------------------------------
# the driver


def _walk(group: list[Check], level: str, cap_n: int | None) -> list[CheckResult]:
    """One walk of the group's shared cases; every check judges each case."""
    results = [CheckResult(c.check_id, c.claim, 0, 0, [], None, 0.0) for c in group]
    best: list[float | None] = [None] * len(group)
    t0 = perf_counter()
    for label, n, payload in group[0].cases(level):
        if cap_n is not None and n > cap_n:
            continue
        for k, (check, res) in enumerate(zip(group, results)):
            t = perf_counter()
            if isinstance(payload, _Invalid):
                problems, score, witness = [payload], None, None
            else:
                problems, score, witness = check.judge(payload)
            res.instances_tried += 1
            if problems:
                res.violations += 1
                if len(res.failures) < 5:
                    res.failures.append(f"{label}: {'; '.join(problems)}")
            if score is not None and (best[k] is None or score > best[k]):
                best[k], res.extremal_witness = score, witness()
            res.seconds += perf_counter() - t
    results[0].seconds += perf_counter() - t0 - sum(r.seconds for r in results)
    return results


def run_all(
    level: str = FULL,
    cap_n: int | None = None,
    only: list[str] | None = None,
    report_line=None,
) -> Report:
    t0 = perf_counter()
    picked = [c for c in CHECKS.values() if not only or c.check_id in only]
    checks = []
    for cases in dict.fromkeys(c.cases for c in picked):
        for res in _walk([c for c in picked if c.cases is cases], level, cap_n):
            checks.append(res)
            if report_line is not None:
                report_line(res.line())
    return Report(level, checks, perf_counter() - t0)

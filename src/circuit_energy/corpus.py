"""Seeded instance generators and named fixture circuits.

Everything here is deterministic: the same GenSpec always yields the same
object, across runs and platforms (Philox is counter-based, so streams do not
depend on call order).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import BudgetInfeasible, ToolkitError, UnknownFixture
from .ir import (
    AND,
    FANIN2,
    OR,
    UNBOUNDED,
    Circuit,
    DecisionTree,
    FaninMode,
    Formula,
    Gate,
    formula_from_tree,
    input_gate,
    not_gate,
)
from .synth import check_gate_budget, minterm_cascade

if TYPE_CHECKING:
    import numpy as np

CIRCUIT = "CIRCUIT"
FORMULA = "FORMULA"
READONCE_LEAFNEG = "READONCE_LEAFNEG"
MONOTONE = "MONOTONE"
DTREE = "DTREE"
SHAPES = (CIRCUIT, FORMULA, READONCE_LEAFNEG, MONOTONE, DTREE)
NONSKEW = "NONSKEW"

# the least num_vars and size budget each shape can build from: circuits and
# formulas draw their leaves from the variables, and formulas need one leaf
_LEAST = {
    CIRCUIT: (1, 0),
    MONOTONE: (1, 0),
    FORMULA: (1, 1),
    READONCE_LEAFNEG: (1, 1),
    DTREE: (0, 0),
    NONSKEW: (1, 1),
}


@dataclass(frozen=True)
class GenSpec:
    seed: int
    num_vars: int
    size_budget: int  # op gates (circuits), leaves (formulas), depth (trees)
    neg_density: float = 0.0
    shape: str = CIRCUIT
    fanin_mode: FaninMode = FANIN2


def _check_budget(shape: str, num_vars: int, size: int) -> None:
    least_n, least_size = _LEAST[shape]
    if num_vars < least_n or size < least_size:
        raise BudgetInfeasible(
            f"{shape} needs num_vars >= {least_n} and size >= {least_size}, "
            f"got {num_vars} and {size}"
        )
    check_gate_budget(
        f"a {shape} of {num_vars} variables and size {size}", num_vars + size
    )
    if shape == DTREE:
        # _gen_dtree branches at three nodes in four, so its node count grows
        # about as 1.5^depth: price the full tree of the depth it can reach
        depth = min(num_vars, size)
        check_gate_budget(f"a full decision tree of depth {depth}", (2 << depth) - 1)


def _rng(seed: int) -> np.random.Generator:
    if seed < 0:
        raise ToolkitError(f"seed must be >= 0, got {seed}")
    import numpy as np

    return np.random.Generator(np.random.Philox(seed))


def _pick(rng: np.random.Generator, upto: int, k: int) -> tuple[int, ...]:
    replace = k > upto
    return tuple(int(c) for c in rng.choice(upto, size=k, replace=replace))


def _gen_circuit(spec: GenSpec, rng: np.random.Generator, monotone: bool) -> Circuit:
    gates: list[Gate] = [input_gate(v) for v in range(spec.num_vars)]
    limit = spec.fanin_mode.limit()
    for _ in range(spec.size_budget):
        if not monotone and rng.random() < spec.neg_density:
            gates.append(not_gate(int(rng.integers(0, len(gates)))))
            continue
        if limit is None:
            k = int(rng.integers(2, 5))
        else:
            k = int(rng.integers(2, limit + 1))
        kids = _pick(rng, len(gates), k)
        kind = AND if rng.random() < 0.5 else OR
        gates.append(Gate(kind, kids))
    return Circuit(spec.num_vars, gates, len(gates) - 1, spec.fanin_mode)


def _gen_formula_tree(rng: np.random.Generator, spec: GenSpec, budget: int):
    if budget == 1:
        node = ("var", int(rng.integers(0, spec.num_vars)))
    else:
        left = int(rng.integers(1, budget))
        node = (
            "and" if rng.random() < 0.5 else "or",
            [
                _gen_formula_tree(rng, spec, left),
                _gen_formula_tree(rng, spec, budget - left),
            ],
        )
    if rng.random() < spec.neg_density:
        node = ("not", node)
    return node


def _gen_readonce(spec: GenSpec, rng: np.random.Generator) -> Formula:
    if spec.size_budget > spec.num_vars:
        raise BudgetInfeasible(
            f"{spec.size_budget} distinct leaves need >= that many variables"
        )
    order = [int(v) for v in rng.permutation(spec.num_vars)[: spec.size_budget]]

    def build(vs: list[int]):
        if len(vs) == 1:
            leaf = ("var", vs[0])
            return ("not", leaf) if rng.random() < spec.neg_density else leaf
        cut = int(rng.integers(1, len(vs)))
        return (
            "and" if rng.random() < 0.5 else "or",
            [build(vs[:cut]), build(vs[cut:])],
        )

    return formula_from_tree(build(order), spec.num_vars, FANIN2)


def _gen_dtree(spec: GenSpec, rng: np.random.Generator) -> DecisionTree:
    def build(avail: tuple[int, ...], depth: int):
        if depth == 0 or not avail or rng.random() < 0.25:
            return int(rng.integers(0, 2))
        v = avail[int(rng.integers(0, len(avail)))]
        rest = tuple(u for u in avail if u != v)
        return (v, build(rest, depth - 1), build(rest, depth - 1))

    return DecisionTree(spec.num_vars, build(tuple(range(spec.num_vars)), spec.size_budget))


def generate(spec: GenSpec):
    """Build the object a GenSpec describes.

    Returns a Circuit (CIRCUIT, MONOTONE), a Formula (FORMULA,
    READONCE_LEAFNEG) or a DecisionTree (DTREE).
    """
    if spec.shape not in SHAPES:
        raise ValueError(f"unknown shape {spec.shape!r}")
    _check_budget(spec.shape, spec.num_vars, spec.size_budget)
    rng = _rng(spec.seed)
    if spec.shape in (CIRCUIT, MONOTONE):
        return _gen_circuit(spec, rng, monotone=spec.shape == MONOTONE)
    if spec.shape == FORMULA:
        tree = _gen_formula_tree(rng, spec, spec.size_budget)
        return formula_from_tree(tree, spec.num_vars, spec.fanin_mode)
    if spec.shape == READONCE_LEAFNEG:
        return _gen_readonce(spec, rng)
    return _gen_dtree(spec, rng)


def generate_nonskew(seed: int, num_vars: int, leaf_budget: int) -> Formula:
    """Monotone formula in which no gate reads exactly one leaf: leaf counts
    stay even down every split, so a gate's children are either two leaves or
    two subformulas.  Odd budgets are rounded up.
    """
    _check_budget(NONSKEW, num_vars, leaf_budget)
    rng = _rng(seed)
    total = leaf_budget + (leaf_budget % 2)

    def build(budget: int):
        if budget == 2:
            kids = [
                ("var", int(rng.integers(0, num_vars))),
                ("var", int(rng.integers(0, num_vars))),
            ]
        else:
            left = 2 * int(rng.integers(1, budget // 2))
            kids = [build(left), build(budget - left)]
        return ("and" if rng.random() < 0.5 else "or", kids)

    return formula_from_tree(build(total), num_vars, FANIN2)


# --------------------------------------------------------------------------
# named fixtures


def _balanced(kind: str, gates: list[Gate], ids: list[int]) -> int:
    if len(ids) == 1:
        return ids[0]
    mid = len(ids) // 2
    l = _balanced(kind, gates, ids[:mid])
    r = _balanced(kind, gates, ids[mid:])
    gates.append(Gate(kind, (l, r)))
    return len(gates) - 1


def _parity_dnf(n: int) -> Circuit:
    gates: list[Gate] = [input_gate(v) for v in range(n)]
    neg = []
    for v in range(n):
        gates.append(not_gate(v))
        neg.append(len(gates) - 1)
    terms = []
    for a in range(1 << n):
        if bin(a).count("1") % 2 == 0:
            continue
        kids = tuple(v if (a >> v) & 1 else neg[v] for v in range(n))
        gates.append(Gate(AND, kids))
        terms.append(len(gates) - 1)
    gates.append(Gate(OR, tuple(terms)))
    return Circuit(n, gates, len(gates) - 1, UNBOUNDED)


def _addr(k: int) -> Circuit:
    n = k + (1 << k)
    gates: list[Gate] = [input_gate(v) for v in range(n)]
    neg = []
    for v in range(k):
        gates.append(not_gate(v))
        neg.append(len(gates) - 1)
    terms = []
    for j in range(1 << k):
        kids = tuple(v if (j >> v) & 1 else neg[v] for v in range(k))
        gates.append(Gate(AND, kids + (k + j,)))
        terms.append(len(gates) - 1)
    gates.append(Gate(OR, tuple(terms)))
    return Circuit(n, gates, len(gates) - 1, UNBOUNDED)


_FIX_PARITY = re.compile(r"parity(\d+)_dnf$")
_FIX_TREE = re.compile(r"(and|or)_tree\((\d+)\)$")
_FIX_ADDR = re.compile(r"addr\((\d+)\)$")
_FIX_TAP = re.compile(r"cascade_tap\((\d+),(\d+)\)$")


def fixture(name: str) -> Circuit:
    """Named fixture circuits.  Each prices its gate count against
    ``synth.GATE_BUDGET`` before it builds.

    parity<k>_dnf       DNF of all odd-weight minterms, shared input negations
    and_tree(k)         balanced fan-in-2 conjunction of k variables
    or_tree(k)          balanced fan-in-2 disjunction of k variables
    addr(k)             multiplexer: k address bits select among 2^k data bits
    cascade_tap(n,j)    the minterm cascade on n variables, tap j as output
    """
    name = name.strip()
    if m := _FIX_PARITY.match(name):
        k = int(m.group(1))
        if k < 2:
            raise UnknownFixture(f"parity{k}_dnf needs k >= 2")
        # the exponent is clamped so that pricing a huge k allocates nothing
        check_gate_budget(name, 2 * k + (1 << min(k - 1, 62)) + 1)
        return _parity_dnf(k)
    if m := _FIX_TREE.match(name):
        kind, k = m.group(1), int(m.group(2))
        if k < 2:
            raise UnknownFixture(f"{kind}_tree({k}) needs k >= 2")
        check_gate_budget(name, 2 * k - 1)
        gates: list[Gate] = [input_gate(v) for v in range(k)]
        out = _balanced(AND if kind == "and" else OR, gates, list(range(k)))
        return Circuit(k, gates, out, FANIN2)
    if m := _FIX_ADDR.match(name):
        k = int(m.group(1))
        if k < 1:
            raise UnknownFixture(f"addr({k}) needs k >= 1")
        check_gate_budget(name, 2 * k + (2 << min(k, 62)) + 1)
        return _addr(k)
    if m := _FIX_TAP.match(name):
        n, j = int(m.group(1)), int(m.group(2))
        if n < 1:
            raise UnknownFixture(f"cascade_tap({n},{j}) is out of range")
        mc = minterm_cascade(n)
        if j >= len(mc.taps):
            raise UnknownFixture(f"cascade_tap({n},{j}) is out of range")
        base = mc.circuit
        return Circuit(base.num_vars, base.gates, mc.taps[j], base.fanin_mode)
    raise UnknownFixture(name)

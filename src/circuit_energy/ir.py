"""Circuit intermediate representation.

A circuit is a topologically ordered list of gates over the basis
{AND, OR, NOT} plus INPUT and CONST sources.  Gate ids are dense and 0-based
and equal the gate's position in the list; children always point backwards.
Evaluation-order things (energy, truth tables) live in ``semantics``; this
module owns the data model, validation, and structural surgery
(one forcing fold, ``forced``, behind restrict and the firing-pattern tree;
structural_stats; and for formulas one copy kernel, ``copy_subformula``,
behind replace_subformula / substitute_leaf).

Every tree walk of the package is one call of ``fold``, a post-order fold on
an explicit stack: the formula copy, the tuple syntax, the GK decomposition,
and the depth, text, truth table and compiled circuit of a decision tree.  So
no formula or tree is too deep for Python's recursion limit.

Conventions used throughout the package:

* input vectors are tuples/lists of 0/1, index ``i`` is variable ``x_i``;
* the integer encoding of an input is little-endian: bit ``i`` of the index
  is ``x_i``;
* ``size`` counts AND/OR/NOT gates only — INPUT and CONST gates are free,
  and CONST gates never contribute energy.
"""

from __future__ import annotations

import re
from functools import reduce
from operator import and_, itemgetter, or_
from typing import Iterable, NamedTuple, Sequence, Union

from .errors import (
    ArityViolation,
    CycleOrForwardRef,
    NotAFormula,
    ParseError,
    UnknownGateRef,
    VarOutOfRange,
)

# --------------------------------------------------------------------------
# gates

INPUT = "INPUT"
CONST = "CONST"
NOT = "NOT"
AND = "AND"
OR = "OR"

#: kinds that carry no children and produce a value on their own
SOURCE_KINDS = (INPUT, CONST)
#: kinds that count toward size() and can spend energy
OP_KINDS = (NOT, AND, OR)


class Gate(NamedTuple):
    """One gate.  ``arg`` is the variable index for INPUT, the bit for CONST,
    and unused otherwise."""

    kind: str
    children: tuple[int, ...] = ()
    arg: int = 0


def input_gate(var: int) -> Gate:
    return Gate(INPUT, (), var)


def const_gate(bit: int) -> Gate:
    return Gate(CONST, (), bit)


def not_gate(child: int) -> Gate:
    return Gate(NOT, (child,))


def and_gate(*children: int) -> Gate:
    return Gate(AND, tuple(children))


def or_gate(*children: int) -> Gate:
    return Gate(OR, tuple(children))


# --------------------------------------------------------------------------
# fan-in modes


class FaninMode(NamedTuple):
    kind: str  # "FANIN2" | "BOUNDED" | "UNBOUNDED"
    cap: int | None = None

    def limit(self) -> int | None:
        """Maximum allowed AND/OR fan-in, or None if unbounded."""
        if self.kind == "FANIN2":
            return 2
        if self.kind == "BOUNDED":
            return self.cap
        return None

    def __str__(self) -> str:
        if self.kind == "BOUNDED":
            return f"BOUNDED({self.cap})"
        return self.kind


FANIN2 = FaninMode("FANIN2")
UNBOUNDED = FaninMode("UNBOUNDED")


def bounded(cap: int) -> FaninMode:
    if cap < 2:
        raise ArityViolation(f"fan-in bound must be >= 2, got {cap}")
    return FaninMode("BOUNDED", cap)


_BOUNDED = re.compile(r"BOUNDED(?::\s*([0-9]+)|\(\s*([0-9]+)\s*\))")


def parse_fanin_mode(text: str) -> FaninMode:
    """FANIN2, UNBOUNDED, or BOUNDED:<c> (also written BOUNDED(<c>))."""
    text = text.strip()
    if text == "FANIN2":
        return FANIN2
    if text == "UNBOUNDED":
        return UNBOUNDED
    m = _BOUNDED.fullmatch(text)
    if m is None:
        raise ParseError(
            f"bad fan-in mode {text!r}: expected FANIN2, UNBOUNDED or BOUNDED:<c>"
        )
    return bounded(int(m.group(1) or m.group(2)))


# --------------------------------------------------------------------------
# circuits


class Circuit:
    """A topologically ordered gate list with a designated output.

    ``gates[i]`` has id ``i``; children of gate ``i`` are all ``< i``.  A
    variable may have several INPUT gates, as a formula that reads it at
    several leaves does.  Construction validates by default; internal
    builders that construct gates in bulk pass ``validate=False`` and the
    test suite re-validates.

    ``swept`` belongs to ``semantics``: None until a circuit of at most 2^16
    inputs is first swept, then every gate's mask over all of them, kept
    for the next sweep.  Nothing assigns to a circuit after construction,
    so the masks never go stale.
    """

    __slots__ = ("num_vars", "gates", "output", "fanin_mode", "swept")

    def __init__(
        self,
        num_vars: int,
        gates: Iterable[Gate],
        output: int,
        fanin_mode: FaninMode = UNBOUNDED,
        *,
        validate: bool = True,
    ) -> None:
        self.num_vars = num_vars
        self.gates = tuple(gates)
        self.output = output
        self.fanin_mode = fanin_mode
        self.swept = None
        if validate:
            self.validate()

    # -- validation -------------------------------------------------------

    def validate(self) -> None:
        if self.num_vars < 0:
            raise VarOutOfRange(f"numVars must be >= 0, got {self.num_vars}")
        n_gates = len(self.gates)
        limit = self.fanin_mode.limit()
        for gid, g in enumerate(self.gates):
            for c in g.children:
                if c < 0 or c >= n_gates:
                    raise UnknownGateRef(f"gate {gid} references missing gate {c}")
                if c >= gid:
                    raise CycleOrForwardRef(
                        f"gate {gid} references gate {c} at or after itself"
                    )
            if g.kind == INPUT:
                if g.children:
                    raise ArityViolation(f"INPUT gate {gid} has children")
                if not 0 <= g.arg < self.num_vars:
                    raise VarOutOfRange(
                        f"gate {gid}: variable x{g.arg} out of range for n={self.num_vars}"
                    )
            elif g.kind == CONST:
                if g.children:
                    raise ArityViolation(f"CONST gate {gid} has children")
                if g.arg not in (0, 1):
                    raise ArityViolation(f"CONST gate {gid} holds non-bit {g.arg!r}")
            elif g.kind == NOT:
                if len(g.children) != 1:
                    raise ArityViolation(
                        f"NOT gate {gid} has {len(g.children)} children, wants 1"
                    )
            elif g.kind in (AND, OR):
                if len(g.children) < 2:
                    raise ArityViolation(
                        f"{g.kind} gate {gid} has {len(g.children)} children, wants >= 2"
                    )
                if limit is not None and len(g.children) > limit:
                    raise ArityViolation(
                        f"{g.kind} gate {gid} has fan-in {len(g.children)}, "
                        f"mode {self.fanin_mode} allows {limit}"
                    )
            else:
                raise ArityViolation(f"gate {gid} has unknown kind {g.kind!r}")
        if not 0 <= self.output < n_gates:
            raise UnknownGateRef(f"output points at missing gate {self.output}")

    # -- small structural helpers -----------------------------------------

    def max_fanin(self) -> int:
        """Largest AND/OR fan-in present (1 if only NOTs, 0 if no op gates):
        the largest child count, since sources have no children."""
        return max(map(len, map(itemgetter(1), self.gates)), default=0)

    def fanin_parameter(self) -> int:
        """The fan-in c of the energy bounds: the mode's limit, or for an
        UNBOUNDED circuit its actual maximum fan-in, never below 2."""
        limit = self.fanin_mode.limit()
        return limit if limit is not None else max(2, self.max_fanin())

    def __repr__(self) -> str:
        return (
            f"Circuit(n={self.num_vars}, gates={len(self.gates)}, "
            f"output=g{self.output}, mode={self.fanin_mode})"
        )


class Formula(Circuit):
    """A circuit whose non-output gates each feed exactly one gate.

    Leaves are INPUT gates; a variable that occurs in several leaves gets one
    INPUT gate per occurrence.  ``leaves()`` is the leaf-count L (CONST leaves
    do not count).
    """

    __slots__ = ()

    def validate(self) -> None:
        super().validate()
        fanout = [0] * len(self.gates)
        for g in self.gates:
            for c in g.children:
                fanout[c] += 1
        for gid, k in enumerate(fanout):
            if gid == self.output:
                if k != 0:
                    raise NotAFormula(f"output gate g{gid} feeds {k} gates")
            elif k != 1:
                raise NotAFormula(
                    f"gate g{gid} feeds {k} gates; a formula gate feeds exactly 1"
                )

    def leaves(self) -> int:
        return sum(1 for g in self.gates if g.kind == INPUT)

    def __repr__(self) -> str:
        return (
            f"Formula(n={self.num_vars}, gates={len(self.gates)}, "
            f"leaves={self.leaves()}, output=g{self.output})"
        )


def as_formula(circuit: Circuit) -> Formula:
    """Reinterpret a circuit as a formula (validates tree shape)."""
    return Formula(
        circuit.num_vars, circuit.gates, circuit.output, circuit.fanin_mode
    )


# --------------------------------------------------------------------------
# structural stats


class StructuralStats(NamedTuple):
    size: int  # AND/OR/NOT gates
    depth: int  # longest output-to-source path, in edges
    negs: int  # NOT gates
    leaves: int  # INPUT gates (for formulas this is L)
    max_fanin: int


def structural_stats(circuit: Circuit) -> StructuralStats:
    size = negs = leaves = 0
    depth = [0] * len(circuit.gates)
    for gid, g in enumerate(circuit.gates):
        if g.kind == INPUT:
            leaves += 1
        elif g.kind != CONST:
            size += 1
            if g.kind == NOT:
                negs += 1
        if g.children:
            depth[gid] = 1 + max(depth[c] for c in g.children)
    return StructuralStats(
        size=size,
        depth=depth[circuit.output] if circuit.gates else 0,
        negs=negs,
        leaves=leaves,
        max_fanin=circuit.max_fanin(),
    )


# --------------------------------------------------------------------------
# the tree walk


def fold(root, expand, join):
    """Fold the tree at ``root`` bottom-up on an explicit stack.

    ``expand(node)`` returns the node's children; a node with none is a
    leaf.  It runs in pre-order, and the first child's whole subtree is
    folded before the second child is expanded, so side effects happen in
    the order of a recursive walk.  ``join(node, values)`` runs in
    post-order on the values of the node's children, in child order (the
    empty result of ``expand`` for a leaf), and returns the node's value.
    Returns the value of ``root``.
    """
    top: list = []  # receives the value of root
    stack = [(root, top, None)]  # (node, list its value goes to, child values)
    pop, push = stack.pop, stack.append
    while stack:
        node, dest, values = pop()
        if values is None:
            kids = expand(node)
            if kids:
                values = []
                push((node, dest, values))
                for kid in reversed(kids):
                    push((kid, values, None))
                continue
            values = kids
        dest.append(join(node, values))
    return top[0]


# --------------------------------------------------------------------------
# restriction (with constant folding) and leaf substitution


def forced(circuit: Circuit, assignment: dict[int, int]) -> tuple[list[int], list[bool]]:
    """``(values, live)``: what pinning the variables of ``assignment``
    forces, and the output cone left once the forced gates fold.

    ``values[g]`` is 0, 3 (forced to 1) or 2 (not forced): bit 1 says gate g
    can be 1 and bit 0 that it must, so AND is ``&``, OR is ``|`` and NOT
    swaps and flips the bits.  ``live[g]`` says g is in the output cone,
    which stops at a forced gate.
    """
    n = circuit.num_vars
    x = [2] * n
    for v, b in assignment.items():
        if not 0 <= v < n:
            raise VarOutOfRange(f"cannot restrict x{v} in an n={n} circuit")
        x[v] = 3 * b
    gates = circuit.gates
    values: list[int] = []
    val = values.__getitem__
    for kind, ch, arg in gates:
        if kind == AND:  # fan-in 2 first, as most gates have it
            v = values[ch[0]] & values[ch[1]] if len(ch) == 2 else reduce(and_, map(val, ch))
        elif kind == OR:
            v = values[ch[0]] | values[ch[1]] if len(ch) == 2 else reduce(or_, map(val, ch))
        elif kind == NOT:
            v = (3, None, 2, 0)[values[ch[0]]]
        else:
            v = x[arg] if kind == INPUT else 3 * arg
        values.append(v)
    live = [False] * len(gates)
    stack = [circuit.output]
    while stack:
        gid = stack.pop()
        if not live[gid]:
            live[gid] = True
            if values[gid] == 2:
                stack.extend(gates[gid].children)
    return values, live


def restrict(circuit: Circuit, assignment: dict[int, int]) -> Circuit:
    """Pin variables to constants, fold forced gates, drop dead gates.

    A gate that ``forced`` forces becomes a CONST gate; any other gate keeps
    its kind and all its children: an AND with one child forced to 1 and two
    live children keeps all three (the forced one now points at a CONST
    gate), as pruning children would silently change arities.  Gates left
    outside the output cone are dropped and ids are remapped densely,
    preserving relative order.  ``numVars`` is unchanged, so the result is
    still a circuit over the original variable set (possibly with no INPUT
    gate for some variables).
    """
    values, live = forced(circuit, assignment)
    remap: dict[int, int] = {}
    kept: list[Gate] = []
    for gid, g in enumerate(circuit.gates):
        if live[gid]:
            remap[gid] = len(kept)
            if values[gid] != 2:
                g = const_gate(values[gid] & 1)
            elif g.children:
                g = Gate(g.kind, tuple(remap[c] for c in g.children), g.arg)
            kept.append(g)
    cls = Formula if isinstance(circuit, Formula) else Circuit
    return cls(
        circuit.num_vars, kept, remap[circuit.output], circuit.fanin_mode,
        validate=False,
    )


def copy_subformula(
    out: list[Gate],
    gates: Sequence[Gate],
    root: int,
    swap_at: int = -1,
    swap_in: Formula | None = None,
) -> int:
    """Append the subformula of ``gates`` at ``root`` to ``out`` in post-order
    (children left to right, then the gate) and return its new id.  The
    subformula at ``swap_at``, if met, is replaced by a copy of ``swap_in``.

    This is the one kernel for formula surgery: restriction, the GK blocks
    and leaf substitution all copy through it, as one ``fold`` over the gate
    ids.  The copy of ``swap_in`` is the one nested call, and it swaps nothing.
    """
    new = tuple.__new__  # Gate's own constructor is a Python call

    def expand(gid: int):
        return () if gid == swap_at else gates[gid].children

    def join(gid: int, kids: list[int]) -> int:
        if gid == swap_at:
            return copy_subformula(out, swap_in.gates, swap_in.output)
        g = gates[gid]
        out.append(new(Gate, (g.kind, tuple(kids), 0)) if kids else g)
        return len(out) - 1

    return fold(root, expand, join)


def const_formula(bit: int) -> Formula:
    """The formula that is the single constant ``bit``."""
    return Formula(0, (const_gate(int(bit)),), 0, validate=False)


def replace_subformula(formula: Formula, gate_id: int, replacement: Formula) -> Formula:
    """A post-order copy of ``formula`` with the subformula at ``gate_id``
    replaced by ``replacement``.  No folding happens; the result is a formula
    over ``max(host.numVars, replacement.numVars)`` variables.
    """
    if not 0 <= gate_id < len(formula.gates):
        raise UnknownGateRef(f"no gate g{gate_id}")
    gates: list[Gate] = []
    out = copy_subformula(gates, formula.gates, formula.output, gate_id, replacement)
    return Formula(
        max(formula.num_vars, replacement.num_vars), gates, out, formula.fanin_mode,
        validate=False,
    )


def substitute_leaf(formula: Formula, leaf_id: int, replacement: Formula) -> Formula:
    """Replace one INPUT leaf of a formula by a whole formula (its leaves keep
    their own variable indices)."""
    if not 0 <= leaf_id < len(formula.gates):
        raise UnknownGateRef(f"no gate g{leaf_id}")
    if formula.gates[leaf_id].kind != INPUT:
        raise UnknownGateRef(f"g{leaf_id} is a {formula.gates[leaf_id].kind} gate, not a leaf")
    return replace_subformula(formula, leaf_id, replacement)


# --------------------------------------------------------------------------
# tuple syntax for formulas
#
# ``formula_from_tree`` builds a formula from plain tuples: ("var", v),
# ("const", b), ("not", t), ("and", [t, ...]), ("or", [t, ...]), laid out in
# dense post-order.  This is only an input syntax (the corpus generators and
# the tests write formulas this way); formula surgery works on the gate list.


_TREE_KINDS = {"not": NOT, "and": AND, "or": OR}


def formula_from_tree(tree, num_vars: int, fanin_mode: FaninMode = UNBOUNDED) -> Formula:
    gates: list[Gate] = []

    def expand(t):
        if t[0] in ("var", "const"):
            return ()
        if t[0] == "not":
            return (t[1],)
        if t[0] in _TREE_KINDS:
            return t[1]
        raise ValueError(f"bad tree node {t!r}")

    def join(t, kids: list[int]) -> int:
        if t[0] == "var":
            gates.append(input_gate(t[1]))
        elif t[0] == "const":
            gates.append(const_gate(t[1]))
        else:
            gates.append(Gate(_TREE_KINDS[t[0]], tuple(kids)))
        return len(gates) - 1

    out = fold(tree, expand, join)
    return Formula(num_vars, gates, out, fanin_mode, validate=False)


# --------------------------------------------------------------------------
# decision trees
#
# A node is either a leaf 0/1 (plain int) or a tuple (var, low, high); ``low``
# is taken when the variable reads 0.  Kept deliberately lightweight — some
# corpora enumerate hundreds of thousands of trees.

DTNode = Union[int, tuple]


class DecisionTree:
    __slots__ = ("num_vars", "root")

    def __init__(self, num_vars: int, root: DTNode, *, validate: bool = True) -> None:
        self.num_vars = num_vars
        self.root = root
        if validate:
            self.validate()

    def validate(self) -> None:
        """Leaves are 0/1, and each path reads distinct in-range variables.
        Nodes are checked depth-first, low branch first, on an explicit
        stack, so the depth of a tree is not bounded by the recursion limit.
        The variables above a node are kept as a list and a set, cut back
        to the node's depth before its variable is checked, so a huge
        variable index costs no 2^var bitmask.
        """
        n = self.num_vars
        path: list[int] = []  # the variables above the node being checked
        on_path: set[int] = set()
        stack = [(self.root, 0)]  # (node, its depth)
        pop, push = stack.pop, stack.append
        while stack:
            node, depth = pop()
            if isinstance(node, int):
                if node not in (0, 1):
                    raise ParseError(f"leaf must be 0/1, got {node!r}")
                continue
            var, low, high = node
            if not 0 <= var < n:
                raise VarOutOfRange(f"x{var} out of range for n={n}")
            while len(path) > depth:
                on_path.discard(path.pop())
            if var in on_path:
                raise VarOutOfRange(f"x{var} repeats along a path; tree is not reduced")
            path.append(var)
            on_path.add(var)
            push((high, depth + 1))
            push((low, depth + 1))

    def depth(self) -> int:
        return dt_depth_of(self.root)

    def evaluate(self, x) -> int:
        node = self.root
        while not isinstance(node, int):
            var, low, high = node
            node = high if x[var] else low
        return node

    def __repr__(self) -> str:
        return f"DecisionTree(n={self.num_vars}, depth={self.depth()})"


def dt_children(node: DTNode) -> tuple:
    """The two branches of a decision-tree node, or () for a leaf: the
    ``expand`` of every ``fold`` over a decision tree."""
    return () if isinstance(node, int) else node[1:]


def dt_depth_of(node: DTNode) -> int:
    return fold(node, dt_children, lambda _, depths: 1 + max(depths) if depths else 0)

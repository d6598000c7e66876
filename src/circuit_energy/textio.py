"""Text formats: netlists, decision-tree s-expressions, truth tables.

Netlist grammar (one item per line, ``#`` starts a comment):

    INPUT x<k>
    <name> = NOT <ref>
    <name> = AND <ref> <ref> [<ref> ...]
    <name> = OR  <ref> <ref> [<ref> ...]
    <name> = CONST 0|1
    OUTPUT <ref>

Gate ids are the 0-based definition order.  Every gate is implicitly named
``g<id>``; INPUT gates are additionally named ``x<k>``.  A gate line's name
and an INPUT's ``x<k>`` are explicit.  An explicit name that collides with an
implicit ``g<id>`` shadows it from that line on (explicit names win), which
keeps resolution one-pass and deterministic; two explicit names never share a
spelling.  Serialization always emits the canonical ``g<id>`` names, so a
parse/serialize round trip is gate-for-gate identical.

A reference to a name that is not yet defined on a gate line raises
CycleOrForwardRef (in a one-pass id-ordered format, a forward reference and a
cycle are the same offence); an unresolved name on the OUTPUT line raises
UnknownGateRef.

``parse_netlist`` reads the lines in one pass and checks there only the
grammar, names and references.  The structural rules are left to
``Circuit.validate`` / ``Formula.validate``, run once on the finished gates,
so a text's first reading fault wins, then its first structural one.

Decision trees are s-expressions ``(x<k> <low> <high>)`` with leaves ``0``/``1``
(low = branch taken when the variable reads 0).  Truth tables are ``n=<k>``
followed by 2^k characters of 0/1 in little-endian input order; whitespace
inside the bit block is ignored.
"""

from __future__ import annotations

import re
from collections.abc import Iterator

from .errors import CycleOrForwardRef, ParseError, UnknownGateRef
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
    FaninMode,
    Formula,
    Gate,
    dt_children,
    fold,
)
from .semantics import TruthTable

_NAME_RE = re.compile(r"^[A-Za-z_]\w*$")
_INPUT_RE = re.compile(r"^INPUT\s+x(\d+)$")
_TABLE_HEAD = re.compile(r"n\s*=\s*(\d+)")
_OP_KINDS = {NOT: NOT, AND: AND, OR: OR}


def _meaningful_lines(text: str) -> Iterator[tuple[int, str]]:
    """(number, text) of each line left non-blank by dropping its comment."""
    for lineno, line in enumerate(text.splitlines(), start=1):
        if "#" in line:
            line = line.split("#", 1)[0]
        line = line.strip()
        if line:
            yield lineno, line


def parse_netlist(
    text: str,
    *,
    formula: bool = False,
    fanin_mode: FaninMode | None = None,
) -> Circuit:
    """Parse a netlist.  ``formula=True`` builds a Formula, whose tree shape
    is then validated.  A variable may have several INPUT lines; its name
    ``x<k>`` names the first.  When ``fanin_mode`` is omitted it is inferred:
    FANIN2 if no AND/OR has more than two children, UNBOUNDED otherwise."""
    new = tuple.__new__  # Gate's own constructor is a Python call
    gates: list[Gate] = []
    emit = gates.append
    names: dict[str, int] = {}
    explicit: set[str] = set()
    max_var = -1
    wide = False
    lines = _meaningful_lines(text)
    for lineno, line in lines:
        gid = len(gates)
        if line.startswith("INPUT") and (m := _INPUT_RE.match(line)):
            var = int(m.group(1))
            emit(new(Gate, (INPUT, (), var)))
            name = f"x{var}"
            if name not in explicit:  # a repeated variable keeps its first gate
                explicit.add(name)
                names[name] = gid
            names.setdefault(f"g{gid}", gid)
            max_var = max(max_var, var)
            continue
        if line.startswith("OUTPUT"):
            parts = line.split()
            if len(parts) != 2:
                raise ParseError(f"line {lineno}: OUTPUT wants exactly one reference")
            output = names.get(parts[1])
            if output is None:
                raise UnknownGateRef(f"line {lineno}: OUTPUT names unknown gate {parts[1]!r}")
            break
        lhs, eq, rhs = line.partition("=")
        if not eq:
            raise ParseError(f"line {lineno}: expected INPUT, OUTPUT or '<name> = ...'")
        lhs = lhs.rstrip()
        if not _NAME_RE.match(lhs):
            raise ParseError(f"line {lineno}: bad gate name {lhs!r}")
        parts = rhs.split()
        if not parts:
            raise ParseError(f"line {lineno}: missing gate kind")
        word = parts[0]
        if word == CONST:
            if len(parts) != 2 or parts[1] not in ("0", "1"):
                raise ParseError(f"line {lineno}: CONST wants a single 0 or 1")
            emit(new(Gate, (CONST, (), int(parts[1]))))
        elif kind := _OP_KINDS.get(word):
            try:
                children = tuple([names[ref] for ref in parts[1:]])
            except KeyError as miss:
                raise CycleOrForwardRef(f"line {lineno}: reference to {miss.args[0]!r} "
                                        "before its definition") from None
            if len(children) > 2 and kind is not NOT:
                wide = True
            emit(new(Gate, (kind, children, 0)))
        else:
            raise ParseError(f"line {lineno}: unknown gate kind {word!r}")
        if lhs in explicit:
            raise ParseError(f"line {lineno}: name {lhs!r} already used")
        explicit.add(lhs)
        names[lhs] = gid
        names.setdefault(f"g{gid}", gid)
    else:
        raise ParseError("netlist has no OUTPUT line" if gates else "empty netlist")
    for lineno, _ in lines:
        raise ParseError(f"line {lineno}: content after the OUTPUT line")
    if fanin_mode is None:
        fanin_mode = UNBOUNDED if wide else FANIN2
    cls = Formula if formula else Circuit
    return cls(max_var + 1, gates, output, fanin_mode)


def serialize_netlist(circuit: Circuit, header: list[str] | None = None) -> str:
    lines = [f"# {h}" for h in (header or [])]
    for gid, g in enumerate(circuit.gates):
        if g.kind == INPUT:
            lines.append(f"INPUT x{g.arg}")
        elif g.kind == CONST:
            lines.append(f"g{gid} = CONST {g.arg}")
        else:
            refs = " ".join(f"g{c}" for c in g.children)
            lines.append(f"g{gid} = {g.kind} {refs}")
    lines.append(f"OUTPUT g{circuit.output}")
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------
# decision trees


_VAR_TOKEN = re.compile(r"x(\d+)")


def parse_dtree(text: str, num_vars: int | None = None) -> DecisionTree:
    """Read an s-expression tree with an explicit stack of open nodes, so its
    depth is not bounded by the recursion limit."""
    body = "\n".join(line for _, line in _meaningful_lines(text))
    tokens = body.replace("(", " ( ").replace(")", " ) ").split()
    if not tokens:
        raise ParseError("empty decision tree")
    pos, end = 0, len(tokens)
    max_var = -1
    open_nodes: list[list] = []  # [var] or [var, low] of each node being read
    while True:
        if pos >= end:
            raise ParseError("unexpected end of decision tree")
        tok = tokens[pos]
        pos += 1
        if tok == "(":
            head = tokens[pos] if pos < end else ""
            pos += 1
            m = _VAR_TOKEN.fullmatch(head)
            if not m:
                raise ParseError(f"expected a variable token, got {head!r}")
            var = int(m.group(1))
            max_var = max(max_var, var)
            open_nodes.append([var])
            continue
        if tok not in ("0", "1"):
            raise ParseError(f"expected '(' or a leaf, got {tok!r}")
        node = int(tok)
        # hand the finished node up, closing every node it completes
        while open_nodes and len(open_nodes[-1]) == 2:
            if pos >= end or tokens[pos] != ")":
                raise ParseError("missing ')' in decision tree")
            pos += 1
            var, low = open_nodes.pop()
            node = (var, low, node)
        if not open_nodes:
            break
        open_nodes[-1].append(node)
    if pos != end:
        raise ParseError("trailing tokens after decision tree")
    n = num_vars if num_vars is not None else max_var + 1
    return DecisionTree(n, node)


def serialize_dtree(tree: DecisionTree) -> str:
    def render(node, branches: list[str]) -> str:
        if not branches:
            return str(node)
        return f"(x{node[0]} {branches[0]} {branches[1]})"

    return fold(tree.root, dt_children, render) + "\n"


# --------------------------------------------------------------------------
# truth tables


def parse_truth_table(text: str) -> TruthTable:
    lines = _meaningful_lines(text)
    first = next(lines, None)
    if first is None:
        raise ParseError("empty truth table")
    lineno, head = first
    m = _TABLE_HEAD.fullmatch(head)
    if not m:
        raise ParseError(f"line {lineno}: expected 'n=<k>' header")
    n = int(m.group(1))
    bits_text = "".join([word for _, line in lines for word in line.split()])
    count = len(bits_text)  # held to 2^n without building it: n is unchecked
    if count & (count - 1) or count.bit_length() != n + 1:
        raise ParseError(f"expected 2^{n} table bits for n={n}, got {count}")
    if set(bits_text) - {"0", "1"}:
        raise ParseError("table bits must be 0/1")
    # little-endian: the first character is bit 0
    return TruthTable(n, int(bits_text[::-1], 2))


def serialize_truth_table(table: TruthTable) -> str:
    s = table.bitstring()
    body = "\n".join(s[i : i + 64] for i in range(0, len(s), 64))
    return f"n={table.num_vars}\n{body}\n"

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

Decision trees are s-expressions ``(x<k> <low> <high>)`` with leaves ``0``/``1``
(low = branch taken when the variable reads 0).  Truth tables are ``n=<k>``
followed by 2^k characters of 0/1 in little-endian input order; whitespace
inside the bit block is ignored.
"""

from __future__ import annotations

import re

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


def _meaningful_lines(text: str) -> list[tuple[int, str]]:
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append((lineno, line))
    return out


def parse_netlist(
    text: str,
    *,
    formula: bool = False,
    fanin_mode: FaninMode | None = None,
) -> Circuit:
    """Parse a netlist.  ``formula=True`` builds a Formula (tree shape is then
    validated and duplicate INPUT variables are allowed).  When ``fanin_mode``
    is omitted it is inferred: FANIN2 if no AND/OR has more than two children,
    UNBOUNDED otherwise."""
    lines = _meaningful_lines(text)
    if not lines:
        raise ParseError("empty netlist")
    gates: list[Gate] = []
    names: dict[str, int] = {}
    explicit: set[str] = set()
    output: int | None = None
    max_var = -1

    def resolve(ref: str, lineno: int, *, at_output: bool) -> int:
        gid = names.get(ref)
        if gid is None:
            if at_output:
                raise UnknownGateRef(f"line {lineno}: OUTPUT names unknown gate {ref!r}")
            raise CycleOrForwardRef(
                f"line {lineno}: reference to {ref!r} before its definition"
            )
        return gid

    for lineno, line in lines:
        if output is not None:
            raise ParseError(f"line {lineno}: content after the OUTPUT line")
        m = _INPUT_RE.match(line)
        if m:
            var = int(m.group(1))
            gid = len(gates)
            gates.append(Gate(INPUT, (), var))
            if f"x{var}" not in explicit:  # a formula may repeat a variable
                explicit.add(f"x{var}")
                names[f"x{var}"] = gid
            names.setdefault(f"g{gid}", gid)
            max_var = max(max_var, var)
            continue
        if line.startswith("OUTPUT"):
            parts = line.split()
            if len(parts) != 2:
                raise ParseError(f"line {lineno}: OUTPUT wants exactly one reference")
            output = resolve(parts[1], lineno, at_output=True)
            continue
        if "=" not in line:
            raise ParseError(f"line {lineno}: expected INPUT, OUTPUT or '<name> = ...'")
        lhs, rhs = (s.strip() for s in line.split("=", 1))
        if not _NAME_RE.match(lhs):
            raise ParseError(f"line {lineno}: bad gate name {lhs!r}")
        parts = rhs.split()
        if not parts:
            raise ParseError(f"line {lineno}: missing gate kind")
        kind, refs = parts[0], parts[1:]
        gid = len(gates)
        if kind == CONST:
            if len(refs) != 1 or refs[0] not in ("0", "1"):
                raise ParseError(f"line {lineno}: CONST wants a single 0 or 1")
            gates.append(Gate(CONST, (), int(refs[0])))
        elif kind in (NOT, AND, OR):
            children = tuple(resolve(r, lineno, at_output=False) for r in refs)
            gates.append(Gate(kind, children))
        else:
            raise ParseError(f"line {lineno}: unknown gate kind {kind!r}")
        if lhs in explicit:
            raise ParseError(f"line {lineno}: name {lhs!r} already used")
        explicit.add(lhs)
        names[lhs] = gid
        names.setdefault(f"g{gid}", gid)
    if output is None:
        raise ParseError("netlist has no OUTPUT line")

    if fanin_mode is None:
        wide = any(
            g.kind in (AND, OR) and len(g.children) > 2 for g in gates
        )
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
    if not lines:
        raise ParseError("empty truth table")
    lineno, head = lines[0]
    m = re.fullmatch(r"n\s*=\s*(\d+)", head)
    if not m:
        raise ParseError(f"line {lineno}: expected 'n=<k>' header")
    n = int(m.group(1))
    bits_text = "".join(line for _, line in lines[1:])
    bits_text = re.sub(r"\s", "", bits_text)
    if len(bits_text) != 1 << n:
        raise ParseError(
            f"expected {1 << n} table bits for n={n}, got {len(bits_text)}"
        )
    if set(bits_text) - {"0", "1"}:
        raise ParseError("table bits must be 0/1")
    bits = 0
    for j, ch in enumerate(bits_text):
        if ch == "1":
            bits |= 1 << j
    return TruthTable(n, bits)


def serialize_truth_table(table: TruthTable) -> str:
    s = table.bitstring()
    body = "\n".join(s[i : i + 64] for i in range(0, len(s), 64))
    return f"n={table.num_vars}\n{body}\n"

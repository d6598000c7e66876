"""Line-list reference for the netlist and truth-table parser tests.

``parse_netlist`` first collects the comment-stripped, non-blank lines with
their numbers, then reads them one by one: a regex for INPUT, a split for
OUTPUT, a split on ``=`` for a gate line, and a closure that resolves each
reference.  The fan-in mode is inferred afterwards by a second pass over the
gates.  ``parse_truth_table`` sets the table's bits one character at a time.
Both accept the same texts and raise the same errors, with the same messages,
as ``circuit_energy.parse_netlist`` and ``circuit_energy.parse_truth_table``.
"""

import re

from circuit_energy import TruthTable
from circuit_energy.errors import CycleOrForwardRef, ParseError, UnknownGateRef
from circuit_energy.ir import AND, CONST, FANIN2, INPUT, NOT, OR, UNBOUNDED, Circuit, Formula, Gate

_NAME_RE = re.compile(r"^[A-Za-z_]\w*$")
_INPUT_RE = re.compile(r"^INPUT\s+x(\d+)$")


def _meaningful_lines(text):
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append((lineno, line))
    return out


def parse_netlist(text, *, formula=False, fanin_mode=None):
    lines = _meaningful_lines(text)
    if not lines:
        raise ParseError("empty netlist")
    gates = []
    names = {}
    explicit = set()
    output = None
    max_var = -1

    def resolve(ref, lineno, *, at_output):
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
            if f"x{var}" not in explicit:  # a repeated variable keeps its first gate
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


def parse_truth_table(text):
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
        raise ParseError(f"expected 2^{n} table bits for n={n}, got {len(bits_text)}")
    if set(bits_text) - {"0", "1"}:
        raise ParseError("table bits must be 0/1")
    bits = 0
    for j, ch in enumerate(bits_text):
        if ch == "1":
            bits |= 1 << j
    return TruthTable(n, bits)

"""Breadth-first reference for the positive-path tests.

``find_positive_path`` evaluates the circuit at ``a`` and at ``a`` with x_i
cleared, then searches level by level upward from an INPUT gate of x_i
through the gates that fire at ``a``, taking each level's gates in id order
and stopping at the first one that is the output or feeds a NOT.  It tries
the INPUT gates of x_i in id order and returns the first search that stops.
It raises the same errors, with the same messages, as
``circuit_energy.find_positive_path``.
"""

from circuit_energy import NoPathFound, PositivePath, evaluate
from circuit_energy.ir import INPUT, NOT
from circuit_energy.semantics import EVAL_CAP, _check_cap


def find_positive_path(circuit, a, i, cap=None):
    _check_cap(circuit.num_vars, cap, EVAL_CAP)
    a = tuple(int(b) for b in a)
    trace = evaluate(circuit, a)
    if not (0 <= i < len(a) and a[i]) or (
        evaluate(circuit, a[:i] + (0,) + a[i + 1 :]).value == trace.value
    ):
        raise NoPathFound(
            f"x{i} is not positively sensitive at {''.join(map(str, a))}"
        )
    starts = [gid for gid, g in enumerate(circuit.gates) if g.kind == INPUT and g.arg == i]
    if not starts:
        raise NoPathFound(f"no INPUT gate for x{i}")  # unreachable if sensitive
    vals = trace.gate_values
    consumers = [[] for _ in circuit.gates]  # the ids of the gates that read each gate
    for gid, g in enumerate(circuit.gates):
        for c in g.children:
            consumers[c].append(gid)
    for start in starts:
        parent: dict[int, int] = {start: -1}
        queue = [start]
        while queue:
            nxt: list[int] = []
            for g in queue:
                feeds_not = [c for c in consumers[g] if circuit.gates[c].kind == NOT]
                if g == circuit.output or feeds_not:
                    path = []
                    cur = g
                    while cur != -1:
                        path.append(cur)
                        cur = parent[cur]
                    path.reverse()
                    if g == circuit.output and not feeds_not:
                        return PositivePath(tuple(path), "ROOT", None, a, i)
                    if feeds_not:
                        return PositivePath(tuple(path), "FEEDS_NOT", min(feeds_not), a, i)
                for c in sorted(consumers[g]):
                    if c not in parent and vals[c] == 1:
                        parent[c] = g
                        nxt.append(c)
            queue = sorted(set(nxt))
    raise NoPathFound(
        f"no all-firing path from x{i} under {''.join(map(str, a))}"
    )

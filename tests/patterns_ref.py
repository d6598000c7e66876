"""Restrict-and-re-sweep reference for the firing-pattern extraction tests.

``dt_from_patterns`` builds the restricted circuit at every node of its
tree with ``restrict`` and sweeps it with ``gate_masks``, then picks the
first non-constant gate of that circuit whose other children are settled
and queries its variable children.  It returns the same ``TradeoffReport``
as ``circuit_energy.dt_from_patterns``.
"""

from circuit_energy import TradeoffReport
from circuit_energy.ir import INPUT, OP_KINDS, DecisionTree, restrict
from circuit_energy.semantics import (
    DT_CAP,
    dt_depth,
    energy_exhaustive,
    firing_patterns,
    gate_masks,
    truth_table,
)


def dt_from_patterns(circuit, cap=None):
    n = circuit.num_vars
    stats_size = sum(1 for g in circuit.gates if g.kind in OP_KINDS)
    t = len(firing_patterns(circuit, cap))
    energy = energy_exhaustive(circuit, cap).ec
    ell = max(1, circuit.max_fanin())

    def extract(c):
        masks = gate_masks(c, cap)
        full = (1 << (1 << n)) - 1
        out = masks[c.output]
        if out == 0:
            return 0
        if out == full:
            return 1

        def settled(gid):
            return masks[gid] in (0, full)

        pick = None
        for gid, g in enumerate(c.gates):
            if g.kind in OP_KINDS and not settled(gid):
                if all(
                    c.gates[ch].kind == INPUT or settled(ch) for ch in g.children
                ):
                    pick = g
                    break
        if pick is None:
            qvars = [c.gates[c.output].arg]
        else:
            qvars = sorted(
                {
                    c.gates[ch].arg
                    for ch in pick.children
                    if c.gates[ch].kind == INPUT and not settled(ch)
                }
            )

        def subtree(idx, assignment):
            if idx == len(qvars):
                return extract(restrict(c, assignment))
            v = qvars[idx]
            return (
                v,
                subtree(idx + 1, {**assignment, v: 0}),
                subtree(idx + 1, {**assignment, v: 1}),
            )

        return subtree(0, {})

    tree = DecisionTree(n, extract(circuit))
    oracle = None
    if n <= DT_CAP:
        oracle = dt_depth(truth_table(circuit, cap)).depth
    return TradeoffReport(stats_size, energy, t, ell, tree, oracle)

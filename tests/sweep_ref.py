"""Whole-width references for the sweep tests.

``energies`` reads every gate's mask over all 2^n inputs off ``gate_masks``,
unpacks it with numpy and sums per input: no blocks, no levels carried
over between blocks, no complement pairs and no bit-sliced counter.  ``gate_lanes`` evaluates the
gates with numpy over the array of input indices, without the mask sweep, so
it can check ``gate_masks`` itself.
"""

import numpy as np

from circuit_energy import gate_masks
from circuit_energy.ir import AND, CONST, INPUT, NOT, OP_KINDS


def lanes(mask: int, n: int) -> np.ndarray:
    """Bit j of ``mask`` as entry j of an int64 array of length 2^n."""
    total = 1 << n
    raw = np.frombuffer(mask.to_bytes((total + 7) >> 3, "little"), dtype=np.uint8)
    return np.unpackbits(raw, bitorder="little", count=total).astype(np.int64)


def energies(circuit, counted=None) -> np.ndarray:
    """Per-input count of the NOT/AND/OR gates that ``counted`` flags, in
    gate order (every one when None): the energy at each of the 2^n inputs."""
    n = circuit.num_vars
    ops = [m for g, m in zip(circuit.gates, gate_masks(circuit)) if g.kind in OP_KINDS]
    if counted is not None:
        ops = [m for m, keep in zip(ops, counted) if keep]
    total = np.zeros(1 << n, dtype=np.int64)
    for m in ops:
        total += lanes(m, n)
    return total


def gate_lanes(circuit) -> list[np.ndarray]:
    """Every gate's 0/1 value at each of the 2^n inputs, gate by gate."""
    index = np.arange(1 << circuit.num_vars, dtype=np.int64)
    vals: list[np.ndarray] = []
    for kind, ch, arg in circuit.gates:
        if kind == INPUT:
            v = (index >> arg) & 1
        elif kind == CONST:
            v = np.full(len(index), arg, dtype=np.int64)
        elif kind == NOT:
            v = 1 - vals[ch[0]]
        elif kind == AND:
            v = np.minimum.reduce([vals[c] for c in ch])
        else:  # OR
            v = np.maximum.reduce([vals[c] for c in ch])
        vals.append(v)
    return vals

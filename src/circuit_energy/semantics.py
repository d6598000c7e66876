"""Exhaustive semantics for circuits: evaluation traces, energy, firing
patterns, truth tables, positive sensitivity, monotonicity, and optimal
decision-tree depth.

Everything here sweeps the full input space, so every operation takes a cap on
the variable count (default 24 for plain sweeps, 5 for dt_depth) and raises
CapExceeded beyond it.  Truth tables and per-gate columns are stored as Python
int bitmasks over the 2^n little-endian input indices: bit j of the mask is
the value on the input whose i-th variable is bit i of j.

Sweeps run in blocks of 2^16 inputs (BLOCK_VARS): inside block b, variables
below 16 are the usual columns and variable v >= 16 is the constant bit
v - 16 of b, so a gate's mask for one block is 8 KB whatever n is, and a
sweep holds one block of masks at a time.  One kernel sets every gate's mask
for a block, testing AND and OR first since most gates are one of the two.
Energy is counted bit-sliced over the NOT, AND and OR masks: a carry-save
counter adds them into about log2(gates) bit-plane ints, and a top-down scan
of the planes gives the block's maximum and its first input; a later block
wins with a larger maximum, or with an equal one at a smaller input index.
n <= 16 is one block, and its masks are kept: the first sweep of a circuit
stores every gate's mask on it (Circuit.swept, see _whole), and truth_table,
the energy counts, energy_moments and gate_masks all read them from there,
so a circuit is swept once however many of them it goes through.  Nothing
changes a circuit after construction, so the kept masks never go stale,
and every cap and budget check runs before they are read.  evaluate never
sweeps: it reads each gate's bit off the kept masks when the circuit has
them and n <= MEMO_EVAL_VARS, where that is faster, and otherwise
interprets the gates, AND and OR first.  Above 2^16 inputs nothing is kept.
Over several blocks, each circuit puts its higher variables on the bits of
a block counter in its own order, the one that makes the fewest gate
sweeps (the lexicographically smallest such order, so the identity when it
is among them), and blocks run as the counter counts.  A gate's level is 0
when it reads only x0..x15 and H - p otherwise (H = n - 16), p the lowest
counter bit that holds a variable it reads: its mask changes only when one
of the top `level` bits of the counter does, so a level-l gate is swept 2^l
times, level 0 once.  Each level keeps its count planes, which start from
the level below's; level 0 starts from a constant 1 per complement pair (a
counted NOT over a counted gate, exactly one of which fires).  A block
re-counts only the levels it swept.  psens counts the same blocks, sliced
from the truth table's bytes: inside a block the masks of variables below
16 come from shifts of the block, and that of a high variable is the block
xor its partner block.  A high variable the table does not read makes each
block with its bit set repeat a lower block, so those blocks are never
counted.  Truth tables put the output mask of each block at the block's
own index, choosing their order over the output cone.
energy_moments reads exact energy sums and sampled per-input energies off
the same planes, without a per-input array.  gate_masks, which
firing_patterns and bounds.dt_from_patterns need (the latter reads every
node of its tree off one call), returns a copy of the kept masks at n <= 16
and sweeps one block of 2^n above; either way it prices the masks against
MASK_BUDGET first.
firing_patterns returns its distinct patterns as sorted packed rows
(Patterns), which become tuples only as they are read.  It packs the rows
eight gates at a time, one 8x8 bit transpose per 64-bit word of mask bytes,
and dedupes them as fixed-width byte strings, whose order is tuple order.
numpy is kept for that transpose, the dedupe and unpacking of the rows, and
for gathering sampled bits.  It is a hard dependency but loads on first
use, inside the functions that need it, so importing the package does not
load it; of the CLI verbs only patterns, extract-dt, fml-nonskew, gen and
verify-all do.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache
from itertools import compress
from operator import itemgetter
from typing import TYPE_CHECKING

from .errors import CapExceeded, LengthMismatch
from .ir import AND, INPUT, NOT, OR, Circuit, DecisionTree

if TYPE_CHECKING:
    import numpy as np

EVAL_CAP = 24  # exhaustive sweeps
MASK_BUDGET = 1 << 27  # bytes of whole-width masks gate_masks may hold
BLOCK_VARS = 16  # a sweep block covers 2^16 inputs
# evaluate reads a swept circuit's masks up to 2^12 inputs and interprets
# above: per call, best of 7 over 200 inputs on seed-3 CIRCUIT instances,
# the read against the interpreter took 4.6 against 15.0 us at n = 8 (68
# gates), 38.7 against 88.1 at n = 12 (412), 63.4 against 59.9 at n = 14
# (294) and 214.6 against 65.1 at n = 16 (316)
MEMO_EVAL_VARS = 12
DT_CAP = 5  # dt_depth's memoized recursion


def _check_cap(n: int, cap: int | None, default: int) -> None:
    limit = default if cap is None else cap
    if n > limit:
        raise CapExceeded(f"n={n} exceeds the enumeration cap {limit}")


@lru_cache(maxsize=64)
def var_masks(n: int) -> tuple[int, ...]:
    """Bitmask of each variable's column over all 2^n inputs.

    Variable i reads 1 exactly on the inputs whose index has bit i set, i.e.
    blocks of 2^i zeros then 2^i ones, repeated.
    """
    total = 1 << n
    masks = []
    for i in range(n):
        width = 1 << i
        m = ((1 << width) - 1) << width  # one period: low half 0s
        width <<= 1
        while width < total:  # tile by doubling
            m |= m << width
            width <<= 1
        masks.append(m)
    return tuple(masks)


def _sweep(circuit: Circuit, masks: list[int], ids, k: int, block: int) -> None:
    """Set ``masks[g]`` for every gate id g in ``ids`` (ascending; each child
    is in ``ids`` or already set) over inputs block * 2^k .. (block + 1) *
    2^k - 1.  AND and OR, most of the gates, are tested first, and two
    children take no loop."""
    full = (1 << (1 << k)) - 1
    vm = var_masks(k)
    gates = circuit.gates
    for gid in ids:
        kind, ch, arg = gates[gid]
        if kind == AND:
            m = masks[ch[0]] & masks[ch[-1]]
            if len(ch) > 2:
                for c in ch[1:-1]:
                    m &= masks[c]
        elif kind == OR:
            m = masks[ch[0]] | masks[ch[-1]]
            if len(ch) > 2:
                for c in ch[1:-1]:
                    m |= masks[c]
        elif kind == NOT:
            m = full ^ masks[ch[0]]
        elif kind == INPUT:
            m = vm[arg] if arg < k else full * ((block >> (arg - k)) & 1)
        else:  # CONST
            m = full if arg else 0
        masks[gid] = m


def _whole(circuit: Circuit) -> tuple[int, ...]:
    """Every gate's mask over all 2^n inputs, n <= BLOCK_VARS, in gate order.
    The first call sweeps them into ``circuit.swept`` and later calls read
    them back, so a circuit is swept once however many sweeps ask."""
    masks = circuit.swept
    if masks is None:
        size = len(circuit.gates)
        buf = [0] * size
        _sweep(circuit, buf, range(size), circuit.num_vars, 0)
        masks = circuit.swept = tuple(buf)
    return masks


def _order(hist: list[int], top: int) -> list[int]:
    """The order of the high variables over the block bits that makes the
    fewest gate sweeps, as offsets v - BLOCK_VARS: entry p is the variable
    at bit p.  ``hist[s]`` counts the swept gates whose set of high
    variables, as a ``top``-bit mask, is s.

    A gate whose first variable in the order sits at bit p is swept
    2^(top - p) times, so placing v at bit p costs 2^(top - p) per gate that
    reads v and none of the variables placed before it.  ``free[t]``, the
    gates that read nothing outside t, gives that count from two subset
    sums.  ``rest[placed]`` is the least cost of placing the others above
    the placed ones, and ``pick[placed]`` the smallest variable reaching it,
    so walking the picks from nothing placed gives the lexicographically
    smallest optimal order: the identity whenever the identity is optimal.
    """
    size = 1 << top
    free = list(hist)
    for v in range(top):
        bit = 1 << v
        for t in range(size):
            if t & bit:
                free[t] += free[t ^ bit]
    full = size - 1
    rest = [0] * size
    pick = [0] * size
    for placed in range(full - 1, -1, -1):
        weight = 1 << (top - placed.bit_count())
        left = free[full ^ placed]  # the gates that read no placed variable
        best = -1
        for v in range(top):
            bit = 1 << v
            if not placed & bit:
                cost = weight * (left - free[full ^ placed ^ bit]) + rest[placed | bit]
                if best < 0 or cost < best:
                    best, pick[placed] = cost, v
        rest[placed] = best
    order, placed = [], 0
    for _ in range(top):
        order.append(pick[placed])
        placed |= 1 << pick[placed]
    return order


def _levels(circuit: Circuit, ids) -> tuple[list[int], list[list[int]]]:
    """The block order of the high variables (see _order), chosen for the
    gates ``ids`` (ascending, closed under children), and those gates level
    by level, each level ascending.  A gate that reads no variable >=
    BLOCK_VARS is at level 0; otherwise it is at level H - p, H = n -
    BLOCK_VARS and p the lowest bit of the order that holds a variable it
    reads, so a gate is at the highest level of its children.  A level-l
    gate's mask depends only on the top l bits of the block's place in the
    order."""
    top = circuit.num_vars - BLOCK_VARS
    gates = circuit.gates
    high = [0] * len(gates)  # each gate's high variables, bit v - BLOCK_VARS
    hist = [0] * (1 << top)
    for gid in ids:
        kind, ch, arg = gates[gid]
        if kind == INPUT:
            s = 1 << (arg - BLOCK_VARS) if arg >= BLOCK_VARS else 0
        else:
            s = 0
            for c in ch:
                s |= high[c]
        high[gid] = s
        hist[s] += 1
    order = _order(hist, top)
    # a set of high variables is at the highest level of its members, and
    # the variable at bit p alone is at level top - p
    alone = [0] * top
    for p, v in enumerate(order):
        alone[v] = top - p
    level_of = [0] * len(hist)
    for s in range(1, len(hist)):
        level_of[s] = max(level_of[s & (s - 1)], alone[(s & -s).bit_length() - 1])
    levels: list[list[int]] = [[] for _ in range(top + 1)]
    for gid in ids:
        levels[level_of[high[gid]]].append(gid)
    return order, levels


def _blocks(circuit: Circuit, masks: list[int], order: list[int], levels: list[list[int]]):
    """Sweep the gates of ``levels`` over every block of 2^BLOCK_VARS inputs,
    with ``order`` and ``levels`` from _levels, yielding ``(g, lo)`` once
    block g's masks are set, lo the lowest level swept for it.  Blocks run
    as b = 0, 1, ..., and bit p of b is bit ``order[p]`` of the block index
    g.  From b - 1 to b only the low (b ^ (b - 1)).bit_length() bits of b
    flip, so only the levels from H + 1 minus that up are swept again (H =
    n - BLOCK_VARS, the top level): a level-l gate is swept 2^l times, the
    others' masks carry over.  The levels swept together go in one kernel
    call, merged in ascending order, which keeps every child before its
    parents."""
    top = len(levels) - 1
    tails = [levels[top]]  # tails[top - l]: the levels from l up, merged
    for level in reversed(levels[:top]):
        tails.append(sorted(level + tails[-1]))
    index = [0] * (1 << top)  # index[b]: the block run b-th
    for b in range(1, 1 << top):
        index[b] = index[b & (b - 1)] | 1 << order[(b & -b).bit_length() - 1]
    for b, g in enumerate(index):
        lo = top + 1 - (b ^ (b - 1)).bit_length() if b else 0
        _sweep(circuit, masks, tails[top - lo], BLOCK_VARS, g)
        yield g, lo


def gate_masks(circuit: Circuit, cap: int | None = None) -> list[int]:
    """Truth-table bitmask of every gate, in gate order (whole gate list, not
    just the output cone — multi-tap circuits rely on this).

    The masks span all 2^n inputs at once, so their size is priced against
    MASK_BUDGET before the sweep starts.
    """
    n = circuit.num_vars
    _check_cap(n, cap, EVAL_CAP)
    size = len(circuit.gates)
    if size << n > MASK_BUDGET << 3:
        raise CapExceeded(
            f"{size} gates over 2^{n} inputs need {(size << n) >> 23} MB of masks, "
            f"over the {MASK_BUDGET >> 20} MB budget"
        )
    if n <= BLOCK_VARS:
        return list(_whole(circuit))
    masks = [0] * size
    _sweep(circuit, masks, range(size), n, 0)
    return masks


# --------------------------------------------------------------------------
# truth tables


def cofactors(bits: int, n: int, var: int) -> tuple[int, int]:
    """The tables of x_var := 0 and x_var := 1 of the n-variable table
    ``bits``, each copied over both values of x_var."""
    high = bits & var_masks(n)[var]
    low = bits ^ high
    shift = 1 << var
    return low | low << shift, high | high >> shift


class TruthTable:
    """A Boolean function as an int bitmask: bit j = f(input j), little-endian."""

    __slots__ = ("num_vars", "bits")

    def __init__(self, num_vars: int, bits: int) -> None:
        if num_vars < 0:
            raise LengthMismatch(f"numVars must be >= 0, got {num_vars}")
        if bits < 0 or bits.bit_length() > 1 << num_vars:
            raise LengthMismatch(f"table value outside the 2^{1 << num_vars}-bit range")
        self.num_vars = num_vars
        self.bits = bits

    @classmethod
    def from_values(cls, num_vars: int, values) -> "TruthTable":
        vals = list(values)
        if len(vals) != 1 << num_vars:
            raise LengthMismatch(
                f"expected {1 << num_vars} values for n={num_vars}, got {len(vals)}"
            )
        bits = 0
        for j, v in enumerate(vals):
            if v:
                bits |= 1 << j
        return cls(num_vars, bits)

    @classmethod
    def from_callable(cls, num_vars: int, fn) -> "TruthTable":
        bits = 0
        for j in range(1 << num_vars):
            x = tuple((j >> i) & 1 for i in range(num_vars))
            if fn(x):
                bits |= 1 << j
        return cls(num_vars, bits)

    def value(self, index: int) -> int:
        return (self.bits >> index) & 1

    def value_at(self, x) -> int:
        if len(x) != self.num_vars:
            raise LengthMismatch(f"input length {len(x)} != n={self.num_vars}")
        index = 0
        for i, b in enumerate(x):
            if b:
                index |= 1 << i
        return self.value(index)

    def bitstring(self) -> str:
        return "".join(str(self.value(j)) for j in range(1 << self.num_vars))

    def padded(self, num_vars: int) -> "TruthTable":
        """View the same function over a larger variable set (tiled table)."""
        if num_vars < self.num_vars:
            raise LengthMismatch("cannot pad to fewer variables")
        # each extra variable doubles the table by tiling
        bits = self.bits
        size = 1 << self.num_vars
        for _ in range(num_vars - self.num_vars):
            bits = bits | (bits << size)
            size <<= 1
        return TruthTable(num_vars, bits)

    def cofactor(self, var: int, bit: int) -> "TruthTable":
        """Restrict x_var := bit; the result no longer depends on x_var."""
        if not 0 <= var < self.num_vars:
            raise LengthMismatch(f"x{var} out of range")
        low, high = cofactors(self.bits, self.num_vars, var)
        return TruthTable(self.num_vars, high if bit else low)

    def depends_on(self, var: int) -> bool:
        return self.cofactor(var, 0).bits != self.cofactor(var, 1).bits

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TruthTable)
            and self.num_vars == other.num_vars
            and self.bits == other.bits
        )

    def __hash__(self) -> int:
        return hash((self.num_vars, self.bits))

    def __repr__(self) -> str:
        if self.num_vars <= 4:
            return f"TruthTable(n={self.num_vars}, {self.bitstring()})"
        return f"TruthTable(n={self.num_vars}, ones={bin(self.bits).count('1')})"


def _cone(circuit: Circuit) -> list[int]:
    """Ascending ids of the gates the output depends on."""
    gates = circuit.gates
    need = [False] * len(gates)
    need[circuit.output] = True
    for gid in range(circuit.output, -1, -1):
        if need[gid]:
            for c in gates[gid].children:
                need[c] = True
    return [gid for gid, live in enumerate(need) if live]


def truth_table(circuit: Circuit, cap: int | None = None) -> TruthTable:
    """The output's mask.  Over several blocks, the output masks of the
    blocks are joined in input order, and only the output cone is swept,
    in the block order chosen for the cone, each of its gates once per
    change of its level (see _blocks); a single block reads the output's
    kept mask (see _whole)."""
    n = circuit.num_vars
    _check_cap(n, cap, EVAL_CAP)
    if n <= BLOCK_VARS:
        return TruthTable(n, _whole(circuit)[circuit.output])
    masks = [0] * len(circuit.gates)
    width = 1 << (BLOCK_VARS - 3)
    parts = [b""] * (1 << (n - BLOCK_VARS))
    for g, _ in _blocks(circuit, masks, *_levels(circuit, _cone(circuit))):
        parts[g] = masks[circuit.output].to_bytes(width, "little")
    return TruthTable(n, int.from_bytes(b"".join(parts), "little"))


def equivalent(c1: Circuit, c2: Circuit, cap: int | None = None) -> bool:
    """Truth-table equality over max(n1, n2) variables (smaller table tiled)."""
    n = max(c1.num_vars, c2.num_vars)
    return truth_table(c1, cap).padded(n) == truth_table(c2, cap).padded(n)


# --------------------------------------------------------------------------
# evaluation traces and energy


@dataclass(slots=True)
class EvalTrace:
    input: tuple
    gate_values: tuple  # all gates, in id order (INPUT and CONST included)
    value: int
    energy: int  # firing NOT/AND/OR gates (INPUT and CONST never count)


def _as_input(circuit: Circuit, x) -> tuple:
    """``x`` as a tuple of ints, refused unless a 0/1 vector of length n."""
    x = tuple(map(int, x))
    if len(x) != circuit.num_vars:
        raise LengthMismatch(f"input length {len(x)} != numVars {circuit.num_vars}")
    if not {0, 1}.issuperset(x):
        raise LengthMismatch("input must be a 0/1 vector")
    return x


def evaluate(circuit: Circuit, x) -> EvalTrace:
    """Every gate's value and the energy at input ``x``: read off the
    circuit's whole-width masks when it has been swept and n <= MEMO_EVAL_VARS,
    else interpreted gate by gate (evaluate never sweeps 2^n inputs itself).
    The interpreter, like _sweep, tests AND and OR first."""
    x = _as_input(circuit, x)
    gates = circuit.gates
    masks = circuit.swept
    if masks is not None and circuit.num_vars <= MEMO_EVAL_VARS:
        bit = 1 << sum(b << i for i, b in enumerate(x))
        vals = [1 if m & bit else 0 for m in masks]
        energy = sum(compress(vals, map(itemgetter(1), gates)))
        return EvalTrace(x, tuple(vals), vals[circuit.output], energy)
    vals = []
    energy = 0
    for kind, ch, arg in gates:
        if kind == AND:
            v = vals[ch[0]] & vals[ch[-1]]
            if len(ch) > 2:
                for c in ch[1:-1]:
                    v &= vals[c]
        elif kind == OR:
            v = vals[ch[0]] | vals[ch[-1]]
            if len(ch) > 2:
                for c in ch[1:-1]:
                    v |= vals[c]
        elif kind == NOT:
            v = 1 - vals[ch[0]]
        else:
            vals.append(x[arg] if kind == INPUT else arg)
            continue
        energy += v
        vals.append(v)
    return EvalTrace(x, tuple(vals), vals[circuit.output], energy)


@dataclass(slots=True)
class EnergyReport:
    ec: int
    argmax_input: tuple


def count_planes(masks, start=()) -> list[int]:
    """Bit-sliced count of the set masks at every input, on top of the count
    that the planes ``start`` hold: plane j holds bit j of each input's count.

    A vertical carry-save counter: each level keeps one pending mask, and a
    second mask at that level goes through a full adder with the level's
    plane, sending its carry one level up.  That costs a handful of big-int
    operations per mask whatever the count grows to.
    """
    planes = list(start)
    pending = [0] * len(planes)  # 0 means empty: adding 0 changes nothing
    for m in masks:
        j = 0
        while m:
            if j == len(planes):
                planes.append(0)
                pending.append(0)
            p = pending[j]
            if not p:
                pending[j] = m
                break
            s = planes[j]
            t = s ^ p
            planes[j], pending[j], m = t ^ m, 0, (s & p) | (t & m)
            j += 1
    carry = 0
    for j, (s, p) in enumerate(zip(planes, pending)):
        t = s ^ p
        planes[j], carry = t ^ carry, (s & p) | (t & carry)
    if carry:
        planes.append(carry)
    return planes


def max_planes(planes: list[int], full: int) -> tuple[int, int]:
    """Largest count held in ``planes`` over the inputs in ``full``, and the
    first (lowest-index) input attaining it."""
    best, cand = 0, full
    for j in reversed(range(len(planes))):
        hit = cand & planes[j]
        if hit:
            best, cand = best | (1 << j), hit
    return best, (cand & -cand).bit_length() - 1


def _block_planes(circuit: Circuit, counted):
    """Per block of inputs, in the order _blocks runs them (not input order
    above 2^16 inputs): its first index, its width 2^k and the count planes
    of the NOT/AND/OR gates that ``counted`` flags (all when None).  A
    single block counts the kept masks (see _whole).

    Over several blocks, each complement pair, a counted NOT over a counted
    gate, adds a constant 1, since exactly one of the two fires on every
    input; each gate is paired at most once.  The other counted gates are
    counted level by level (see _levels), under the order chosen for all
    gates: a level's planes start from the planes of the level below, level
    0's from the pairs' constant, and a block re-counts only the levels that
    _blocks swept for it, so a level's count carries over while its masks
    do.  Levels nest under any fixed order, so this holds for every order.
    """
    n = circuit.num_vars
    # the NOT/AND/OR gates are exactly the gates with children
    has_children = map(itemgetter(1), circuit.gates)
    if n <= BLOCK_VARS:  # one block: count the op masks of the whole sweep
        ops = compress(_whole(circuit), has_children)
        yield 0, n, count_planes(ops if counted is None else compress(ops, counted))
        return
    k = BLOCK_VARS
    size = len(circuit.gates)
    masks = [0] * size
    ops = list(compress(range(size), has_children))
    if counted is not None:
        ops = list(compress(ops, counted))
    gates = circuit.gates
    single = [False] * size  # counted and not (yet) in a pair
    pairs = 0
    for gid in ops:
        kind, ch, _ = gates[gid]
        if kind == NOT and single[ch[0]]:
            single[ch[0]] = False
            pairs += 1
        else:
            single[gid] = True
    order, levels = _levels(circuit, range(size))
    counts = [[gid for gid in level if single[gid]] for level in levels]
    full = (1 << (1 << k)) - 1
    # planes[0] is the pairs' constant, planes[l + 1] adds the counted gates
    # up to level l; block 0 sweeps every level, so it fills them all
    planes = [[full * ((pairs >> j) & 1) for j in range(pairs.bit_length())]]
    planes += [[]] * len(levels)
    for g, lo in _blocks(circuit, masks, order, levels):
        for lv in range(lo, len(levels)):
            planes[lv + 1] = count_planes(map(masks.__getitem__, counts[lv]), planes[lv])
        yield g << k, k, planes[-1]


def max_firing(circuit: Circuit, cap: int | None = None, counted=None) -> tuple[int, tuple]:
    """Largest number of NOT/AND/OR gates firing together over all 2^n inputs,
    and the first (little-endian) input attaining it.  ``counted`` flags, for
    each such gate in gate order, whether it counts (default: every one)."""
    _check_cap(circuit.num_vars, cap, EVAL_CAP)
    best, arg = -1, 0
    for base, k, planes in _block_planes(circuit, counted):
        peak, idx = max_planes(planes, (1 << (1 << k)) - 1)
        # blocks need not run in input order: an equal peak wins only at a
        # smaller input index
        if peak > best or peak == best and base + idx < arg:
            best, arg = peak, base + idx
    return best, tuple((arg >> i) & 1 for i in range(circuit.num_vars))


@dataclass(slots=True)
class EnergyMoments:
    total: int  # sum of the energy over all 2^n inputs
    square_total: int  # sum of its square
    drawn: np.ndarray  # uint32 energy at each requested input index


def energy_moments(circuit: Circuit, at, cap: int | None = None) -> EnergyMoments:
    """Exact energy sum and sum of squares over all 2^n inputs, and the
    energy at each input index in ``at``, read off each block's count
    planes P_j: the sum is sum_j 2^j |P_j|, the sum of squares
    sum_{j,k} 2^(j+k) |P_j & P_k|, and input i's energy sum_j 2^j bit_i(P_j).
    The indices are taken block by block, matched against each block's
    first index whatever order the blocks run in, so no 2^n array is
    built."""
    import numpy as np

    _check_cap(circuit.num_vars, cap, EVAL_CAP)
    at = np.asarray(at, dtype=np.uint64)
    drawn = np.zeros(len(at), dtype=np.uint32)
    block_of = at >> np.uint64(min(circuit.num_vars, BLOCK_VARS))
    total = square = 0
    for base, k, planes in _block_planes(circuit, None):
        for j, p in enumerate(planes):
            ones = p.bit_count()
            total += ones << j
            square += ones << 2 * j
            for i in range(j):
                square += (p & planes[i]).bit_count() << (i + j + 1)
        sel = np.flatnonzero(block_of == base >> k)
        if not len(sel):
            continue
        local = (at[sel] - np.uint64(base)).astype(np.intp)
        byte, shift = local >> 3, local & 7
        width = ((1 << k) + 7) >> 3
        for j, p in enumerate(planes):
            raw = np.frombuffer(p.to_bytes(width, "little"), dtype=np.uint8)
            drawn[sel] |= ((raw[byte] >> shift) & 1).astype(np.uint32) << j
    return EnergyMoments(total, square, drawn)


def energy_exhaustive(circuit: Circuit, cap: int | None = None) -> EnergyReport:
    """EC(C) with the first input (little-endian order) attaining it."""
    return EnergyReport(*max_firing(circuit, cap))


class Patterns(Sequence):
    """Distinct firing patterns as sorted packed rows.

    ``rows`` is a C-contiguous uint8 array with one row of ceil(width / 8)
    bytes per pattern, bits big-endian and padded with zero bits, so that
    the rows compare as equal-width byte strings (memcmp) in tuple order;
    firing_patterns dedupes and sorts them that way.  A row becomes a 0/1
    tuple only when it is read: ``p[k]`` unpacks one row and iteration
    unpacks 1024 rows at a time.
    """

    __slots__ = ("rows", "width")

    def __init__(self, rows: np.ndarray, width: int) -> None:
        self.rows = rows
        self.width = width  # pattern length: the non-input gate count

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, k):
        import numpy as np

        if isinstance(k, slice):
            return Patterns(self.rows[k], self.width)
        return tuple(bytes(np.unpackbits(self.rows[k], count=self.width)))

    def __iter__(self):
        import numpy as np

        for lo in range(0, len(self.rows), 1024):
            bits = np.unpackbits(self.rows[lo : lo + 1024], axis=1, count=self.width)
            yield from map(tuple, map(bytes, bits))  # a bytes row iterates as 0/1 ints

    def __eq__(self, other) -> bool:
        import numpy as np

        if isinstance(other, Patterns):
            return self.width == other.width and np.array_equal(self.rows, other.rows)
        if isinstance(other, list):
            return len(other) == len(self) and list(self) == other
        return NotImplemented

    def __repr__(self) -> str:
        return f"Patterns(count={len(self)}, width={self.width})"


# delta swaps (mask, shift) that transpose the 8x8 bit matrix of a uint64
# word, byte r as row r and bit c of a byte as column c; firing_patterns
# makes them uint64
_TRANSPOSE8 = ((0x00AA00AA00AA00AA, 7), (0x0000CCCC0000CCCC, 14), (0xF0F0F0F0, 28))


def firing_patterns(circuit: Circuit, cap: int | None = None) -> Patterns:
    """Distinct vectors of non-input gate values over all inputs, sorted.

    CONST gates are non-input gates and contribute their (constant) bit;
    pattern entries follow ascending gate id.
    """
    import numpy as np

    masks = gate_masks(circuit, cap)  # checks the cap before 2^n is built
    total = 1 << circuit.num_vars
    masks = [m for g, m in zip(circuit.gates, masks) if g.kind != INPUT]
    count = len(masks)
    if not count:
        return Patterns(np.zeros((1, 0), dtype=np.uint8), 0)
    # Groups of 8 gates: word i of a group holds byte i of the 8 masks, the
    # group's last gate in the low byte.  Transposing its bit matrix leaves
    # in byte b the pattern byte of input 8i + b, first gate in the high bit.
    width = (count + 7) >> 3
    nbytes = (total + 7) >> 3
    masks += [0] * (-count % 8)
    # each stage frees the one before it and the swaps work in place, so at
    # most three arrays of the rows' size are alive at once
    raw = np.frombuffer(b"".join(m.to_bytes(nbytes, "little") for m in masks), np.uint8)
    del masks
    words = raw.reshape(width, 8, nbytes)[:, ::-1].transpose(0, 2, 1).copy().view("<u8")
    del raw
    t = np.empty_like(words)
    for m, s in _TRANSPOSE8:
        m, s = np.uint64(m), np.uint64(s)
        np.right_shift(words, s, out=t)
        t ^= words
        t &= m
        words ^= t
        t <<= s
        words ^= t
    del t
    rows = words.view(np.uint8).reshape(width, -1)[:, :total].T.copy()
    del words  # freed before np.unique builds its table of the rows
    # equal-width byte strings order as memcmp, which is tuple order here
    uniq = np.unique(rows.view(f"S{width}"))
    return Patterns(uniq.view(np.uint8).reshape(-1, width), count)


# --------------------------------------------------------------------------
# positive sensitivity


@dataclass(slots=True)
class PsensReport:
    value: int
    witness_input: tuple
    witness_indices: set


def psens_at(f: TruthTable, a) -> set:
    """Indices i with a_i = 1 whose flip changes f(a)."""
    if len(a) != f.num_vars:
        raise LengthMismatch(f"input length {len(a)} != n={f.num_vars}")
    base = f.value_at(a)
    out = set()
    for i, b in enumerate(a):
        if b:
            flipped = list(a)
            flipped[i] = 0
            if f.value_at(flipped) != base:
                out.add(i)
    return out


def psens(f: TruthTable, cap: int | None = None) -> PsensReport:
    """max over a of |{i : a_i = 1, f(a xor e_i) != f(a)}|, with a witness.

    Counted over the table's blocks of 2^16 inputs (one block at n <= 16),
    sliced from its bytes.  x_{16+j} is read when some block differs from
    its partner across bit j.  A block with an unread bit set repeats the
    counts of the block with those bits cleared, which comes first, so only
    the blocks whose set bits are all read are counted, in increasing
    index; a later block wins only with a larger peak, so the witness is
    the first argmax.
    """
    n = f.num_vars
    _check_cap(n, cap, EVAL_CAP)
    k = min(n, BLOCK_VARS)
    blocks, read = {0: f.bits}, []
    if n > k:
        raw = f.bits.to_bytes(1 << (n - 3), "little")
        step = 1 << (k - 3)
        rows = [raw[i:i + step] for i in range(0, len(raw), step)]
        read = [j for j in range(n - k)
                if any(rows[b] != rows[b | 1 << j] for b in range(len(rows)) if not b >> j & 1)]
        unread = len(rows) - 1 - sum(1 << j for j in read)
        blocks = {b: int.from_bytes(row, "little") for b, row in enumerate(rows) if not b & unread}
    full, low = (1 << (1 << k)) - 1, var_masks(k)
    value, best = -1, 0
    for b, bits in blocks.items():
        # s_i: inputs with a_i = 1 whose partner a - 2^i has the other value;
        # for a high variable the partner is the whole block b - 2^j
        sens = [(bits ^ (bits << (1 << i))) & x for i, x in enumerate(low)]
        for j in read:  # a loop, not a comprehension: n <= 16 reads none
            if b >> j & 1:
                sens.append(bits ^ blocks[b ^ 1 << j])
        top, at = max_planes(count_planes(sens), full)
        if top > value:
            value, best = top, b << k | at
    witness = tuple((best >> i) & 1 for i in range(n))
    return PsensReport(value, witness, psens_at(f, witness))


def is_monotone(f: TruthTable, cap: int | None = None) -> bool:
    """Check f(x) <= f(y) along every single-bit-increase edge."""
    _check_cap(f.num_vars, cap, EVAL_CAP)
    for i in range(f.num_vars):
        f0, f1 = cofactors(f.bits, f.num_vars, i)
        if f0 & ~f1:
            return False
    return True


# --------------------------------------------------------------------------
# optimal decision-tree depth


@dataclass(slots=True)
class DtDepthResult:
    depth: int
    optimal_tree: DecisionTree


def dt_depth(f: TruthTable, cap: int | None = None) -> DtDepthResult:
    """Exact DT(f) by memoized recursion, with one optimal tree.

    Cofactoring canonicalizes the subfunction (the table becomes independent
    of the fixed variable), so the memo key is the table bitmask alone.
    Ties break toward the smallest variable index; only support variables are
    branched on.
    """
    n = f.num_vars
    _check_cap(n, cap, DT_CAP)
    full = (1 << (1 << n)) - 1
    memo: dict[int, tuple[int, int | None]] = {}

    def solve(bits: int) -> int:
        if bits == 0 or bits == full:
            return 0
        hit = memo.get(bits)
        if hit is not None:
            return hit[0]
        best_d, best_v = 1 << 30, None
        for i in range(n):
            lo, hi = cofactors(bits, n, i)
            if lo == hi:
                continue
            d = 1 + max(solve(lo), solve(hi))
            if d < best_d:
                best_d, best_v = d, i
        memo[bits] = (best_d, best_v)
        return best_d

    def rebuild(bits: int):
        if bits == 0:
            return 0
        if bits == full:
            return 1
        _, v = memo[bits]
        lo, hi = cofactors(bits, n, v)
        return (v, rebuild(lo), rebuild(hi))

    depth = solve(f.bits)
    return DtDepthResult(depth, DecisionTree(n, rebuild(f.bits)))

"""Communication game on a monotone function: Alice holds a 1-input, Bob a
0-input, and they must agree on an index where Alice has 1 and Bob has 0.

The protocol walks the firing cone of Alice's minimized input top-down.  Every
address Alice sends names the firing child of an OR gate, so her total is at
most EC(C, a') * ceil(log2 c) bits for fan-in c circuits.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NoSensitiveIndexFound, NotAOneInput, NotMonotone
from .ir import AND, INPUT, NOT, OR, Circuit
from .semantics import TruthTable, evaluate, is_monotone, psens_at, truth_table
from .bounds import find_positive_path


@dataclass(slots=True)
class KwInstance:
    circuit: Circuit
    a: tuple  # Alice's input, f(a) = 1
    b: tuple  # Bob's input, f(b) = 0


def make_instance(circuit: Circuit, a, b, cap: int | None = None) -> KwInstance:
    f = truth_table(circuit, cap)
    if not is_monotone(f):
        raise NotMonotone("the circuit does not compute a monotone function")
    a = tuple(int(x) for x in a)
    b = tuple(int(x) for x in b)
    if f.value_at(a) != 1:
        raise NotAOneInput(f"f({''.join(map(str, a))}) = 0, Alice needs a 1-input")
    if f.value_at(b) != 0:
        raise NotAOneInput(f"f({''.join(map(str, b))}) = 1, Bob needs a 0-input")
    return KwInstance(circuit, a, b)


def minimize_one_input(f: TruthTable, a) -> tuple:
    """Greedily drop 1-bits of ``a`` while f stays 1, trying the highest index
    first so the surviving minterm keeps its lowest-index ones.  Every 1-bit
    of the result is positively sensitive.
    """
    a = list(int(x) for x in a)
    if f.value_at(a) != 1:
        raise NotAOneInput("can only minimize a 1-input")
    for i in range(len(a) - 1, -1, -1):
        if a[i] == 1:
            a[i] = 0
            if f.value_at(a) != 1:
                a[i] = 1
    return tuple(a)


@dataclass(slots=True)
class KwTranscript:
    result: int  # index with a'_i = 1, b_i = 0
    alice_bits: int  # total path-address bits sent by Alice
    bob_bits: int  # verdict bits sent by Bob
    sync_bits: int  # liveness flags for NOT-feeder targets (bookkeeping only)
    repairs: int  # fallback path walks that were needed (0 in every run seen)
    minimized_input: tuple
    addr_bits: int  # bits per address, ceil(log2 c)


def run_protocol(instance: KwInstance, cap: int | None = None) -> KwTranscript:
    """Simulate both parties.  Alice announces, for each OR gate on the
    explored firing cone, which child fires (lowest id, once per gate); AND
    gates cost nothing since all their children fire.  Bob answers one bit per
    INPUT gate reached: whether his bit is 0 there.  So a variable read at
    several leaves, as in a formula, is answered once per leaf reached.

    Cone exploration starts from the output and from every gate feeding a NOT
    (the cone of a' can be blocked from the root by negations; each such entry
    point costs Alice one sync flag to say whether it fired, counted apart
    from the address bits).  A final repair sweep over unverdicted sensitive
    indices keeps the protocol total even on inputs the cone argument does not
    reach; it never triggered on any monotone circuit tested.
    """
    circuit = instance.circuit
    f = truth_table(circuit, cap)
    a1 = minimize_one_input(f, instance.a)
    trace = evaluate(circuit, a1)
    vals = trace.gate_values

    addr_bits = max(1, (circuit.fanin_parameter() - 1).bit_length())

    alice_bits = 0
    bob_bits = 0
    sync_bits = 0
    repairs = 0
    result: int | None = None

    # Exploration targets: feeders of NOT gates in ascending NOT id, then the
    # output.  The output always fires (f(a') = 1); a NOT feeder may not, and
    # whether it does only needs a flag when the walk so far settles neither
    # the feeder nor the NOT.
    not_feeders = [
        (gid, g.children[0])
        for gid, g in enumerate(circuit.gates)
        if g.kind == NOT
    ]

    visited: set[int] = set()  # gates both parties know fired
    announced: set[int] = set()  # OR gates whose firing child was sent

    def explore(gid: int) -> None:
        nonlocal alice_bits, bob_bits, result
        stack = [gid]
        while stack:
            g = stack.pop()
            if g in visited:
                continue
            visited.add(g)
            gate = circuit.gates[g]
            if gate.kind == INPUT:
                bob_bits += 1
                if result is None and instance.b[gate.arg] == 0:
                    result = gate.arg
            elif gate.kind == AND:
                stack.extend(reversed(gate.children))
            elif gate.kind == OR and g not in announced:
                announced.add(g)
                alice_bits += addr_bits
                child = min(ch for ch in gate.children if vals[ch] == 1)
                stack.append(child)
            # NOT and CONST are dead ends: nothing below fires "positively".

    for not_id, feeder in not_feeders:
        if feeder in visited:
            explore(feeder)
        elif not_id in visited:
            pass  # feeder known dead, nothing to explore
        else:
            sync_bits += 1
            if vals[feeder] == 1:
                explore(feeder)
            else:
                visited.add(not_id)
    explore(circuit.output)

    if result is None:
        # Repair: walk a positive path for each still-live sensitive index.
        for i in range(circuit.num_vars):
            if a1[i] != 1 or i not in psens_at(f, a1):
                continue
            repairs += 1
            path = find_positive_path(circuit, a1, i, cap)
            alice_bits += addr_bits * len(path.gate_ids)
            bob_bits += 1
            if instance.b[i] == 0:
                result = i
                break
        if result is None:
            raise NoSensitiveIndexFound(
                "no positively sensitive index separates the two inputs"
            )

    return KwTranscript(
        result, alice_bits, bob_bits, sync_bits, repairs, a1, addr_bits
    )

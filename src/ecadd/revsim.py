"""Bitsliced simulation of classical reversible circuits.

The simulator runs many basis states through the circuit at once.  Each
wire holds one Python integer whose bit k is that wire's value in lane
k (Biham 1997, "A fast new DES implementation in software"), so every
gate is one big-integer operation over all lanes:

    Toffoli  w[t] ^= w[a] & w[b]
    CNOT     w[t] ^= w[c]
    NOT      w[t] ^= mask      (mask has one bit set per lane)

The outputs are the wires, in wire order.  A single basis state, a
packed integer whose bit i is the value on wire i, is the one-lane case
of the same loop.
"""

from __future__ import annotations

from .circuit_ir import CNOT, NOT, TOFFOLI, Circuit


class UnsupportedGate(ValueError):
    """Circuit contains a non-classical gate (H/T/S...)."""


def to_lanes(states: list[int], width: int) -> list[int]:
    """Transpose packed states into lanes: bit k of wire i's integer is
    bit i of ``states[k]``.  Every state must fit in ``width`` bits."""
    if not states or not width:
        return [0] * width
    rows = [format(s, f"0{width}b") for s in reversed(states)]
    # Row strings are most significant bit first, so column j is wire
    # width-1-j, and each column reads from the last state to the first.
    lanes = [int("".join(col), 2) for col in zip(*rows)]
    lanes.reverse()
    return lanes


class Simulator:
    """Reusable simulator for a fixed classical circuit."""

    def __init__(self, circuit: Circuit):
        # The circuit's runs are shared, not copied: it must stay fixed.
        self._runs = circuit.runs
        for kind, _ in self._runs:
            if kind not in (NOT, CNOT, TOFFOLI):
                raise UnsupportedGate(
                    f"cannot simulate non-classical gate kind {kind}"
                )
        self._width = circuit.width

    @property
    def width(self) -> int:
        return self._width

    def run_lanes(self, wires: list[int], mask: int) -> list[int]:
        """Run every lane of ``wires`` (one integer per wire) through the
        circuit; ``mask`` has bit k set for each lane k in use."""
        if len(wires) != self._width:
            raise ValueError("one lane integer per wire is required")
        w = list(wires)
        for kind, cols in self._runs:
            if kind == CNOT:
                for c, t in zip(*cols):
                    w[t] ^= w[c]
            elif kind == TOFFOLI:
                for a, b, t in zip(*cols):
                    w[t] ^= w[a] & w[b]
            else:
                for t in cols[0]:
                    w[t] ^= mask
        return w

    def run(self, state: int) -> int:
        """One packed basis state through the circuit (one lane)."""
        if not 0 <= state < (1 << self._width):
            raise ValueError("state out of range for circuit width")
        out = self.run_lanes([state >> i & 1 for i in range(self._width)], 1)
        return sum(bit << i for i, bit in enumerate(out))

"""Reversible / Clifford+T circuit representation and exact metrics.

Circuits are built over a flat wire table.  Gates are stored as compact
tuples ``(kind, wire, ...)`` so that million-gate circuits fit
comfortably in memory.

Labeled gate-index spans ("groups") mark logical subcircuits.  They form
one flat list in gate order and never nest, like the blocks of a ``.qc``
file; writers render each group as a named block.

Metrics are computed by earliest-start scheduling: a gate starts one time
unit after the latest finish time on any of its wires.  There is one
T-count and one T-depth, those of the Clifford+T circuit: each Toffoli
is charged its 15-gate template, 7 T/T-dagger gates and 4 T-stages on
all three wires as a block, and every T/T-dagger costs one T-stage.
``depth`` is the gate-level depth; the "decomposed" figures give the
Clifford+T gate counts, exact, and a depth that charges each Toffoli 8
units as a block, which is how composition bounds for Toffoli-level
constructions are accounted.  On a Toffoli-free circuit the block
figures are the circuit's own.

``metrics`` takes every figure in one pass over the gate list, branching
on the gate kind.  Alongside the three global per-wire levels it keeps a
fourth, relative level, reset to zero on every wire at the start of each
group; the largest relative level when the group ends is the group's
own depth, the depth it would have as a circuit by itself.
Per-kind counts of the circuit and of each group come from the same loop.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from itertools import islice

NOT, CNOT, TOFFOLI, H, T, T_DAGGER, S, S_DAGGER = range(8)

KIND_NAMES = ("not", "cnot", "toffoli", "h", "t", "t_dagger", "s", "s_dagger")
ARITY = (1, 2, 3, 1, 1, 1, 1, 1)

# Clifford+T realization of TOFFOLI(c1, c2, t): 15 gates, 7 of them
# T/T-dagger, scheduled depth 8 and T-depth 4.  Entries are
# (kind, role...) with roles 0/1 = controls, 2 = target; two-wire
# entries are (CNOT, control_role, target_role).  ``qcformat`` writes
# the same 15 gates out by hand as one f-string;
# ``test_clifford_t_toffoli_is_the_template`` keeps the two in step.
TOFFOLI_TEMPLATE = (
    (T, 0),
    (T, 1),
    (H, 2),
    (CNOT, 2, 0),
    (T_DAGGER, 0),
    (T, 2),
    (CNOT, 1, 0),
    (T, 0),
    (CNOT, 2, 1),
    (CNOT, 2, 0),
    (T_DAGGER, 1),
    (T_DAGGER, 0),
    (CNOT, 2, 1),
    (CNOT, 1, 0),
    (H, 2),
)

# Per-Toffoli contributions of the template, used for the exact
# Clifford+T gate counts and the block-accounted depth and T-depth.
TOFFOLI_DECOMP_COUNTS = {CNOT: 6, H: 2, T: 4, T_DAGGER: 3}
TOFFOLI_DECOMP_DEPTH = 8
TOFFOLI_DECOMP_T_DEPTH = 4


class CircuitError(ValueError):
    """Malformed circuit operation (bad wires, arity, or a nested group)."""


@dataclass(frozen=True)
class Group:
    label: str
    start: int  # gate index, inclusive
    end: int    # gate index, exclusive


class Circuit:
    """A gate list over named wires, with labeled subcircuit spans; its
    inputs and outputs are its wires, in wire order."""

    def __init__(self):
        self.wires: list[str] = []
        self._wire_names: set[str] = set()
        self._gates: list[tuple] = []
        self.groups: list[Group] = []
        self._in_group = False

    # -- wires ----------------------------------------------------------

    def add_wire(self, name: str) -> int:
        if name in self._wire_names:
            raise CircuitError(f"duplicate wire name {name!r}")
        wid = len(self.wires)
        self.wires.append(name)
        self._wire_names.add(name)
        return wid

    @property
    def width(self) -> int:
        return len(self.wires)

    # -- gates ----------------------------------------------------------

    def append(self, kind: int, *wires: int):
        if not 0 <= kind < len(KIND_NAMES):
            raise CircuitError(f"unknown gate kind {kind}")
        if len(wires) != ARITY[kind]:
            raise CircuitError(
                f"{KIND_NAMES[kind]} takes {ARITY[kind]} wires, got {len(wires)}"
            )
        nw = len(self.wires)
        for w in wires:
            if not 0 <= w < nw:
                raise CircuitError(f"wire id {w} out of range")
        if len(set(wires)) != len(wires):
            raise CircuitError("gate wires must be distinct")
        self._gates.append((kind,) + wires)

    def extend_raw(self, gates):
        """Bulk-append pre-validated gate tuples (synthesis fast path)."""
        self._gates.extend(gates)

    @property
    def num_gates(self) -> int:
        return len(self._gates)

    def gate_tuples(self) -> list[tuple]:
        return self._gates

    # -- groups ----------------------------------------------------------

    @contextmanager
    def group(self, label: str):
        """Label the gates appended inside the ``with`` block.  The group
        is recorded when the block exits normally; groups do not nest."""
        if self._in_group:
            raise CircuitError(f"group {label!r} opened inside another group")
        self._in_group = True
        start = len(self._gates)
        try:
            yield
        finally:
            self._in_group = False
        self.groups.append(Group(label, start, len(self._gates)))


def decompose_toffoli(circuit: Circuit) -> Circuit:
    """Rewrite every Toffoli as its 15-gate Clifford+T template.

    Group spans are remapped so labeled blocks still cover the same
    logical gates.  ``qcformat.write_qc(circuit, clifford_t=True)``
    returns the .qc bytes of this circuit without building it.
    """
    out = Circuit()
    for name in circuit.wires:
        out.add_wire(name)
    gates = []
    index_map = [0] * (len(circuit._gates) + 1)
    for i, g in enumerate(circuit._gates):
        index_map[i] = len(gates)
        if g[0] == TOFFOLI:
            roles = (g[1], g[2], g[3])
            for entry in TOFFOLI_TEMPLATE:
                if entry[0] == CNOT:
                    gates.append((CNOT, roles[entry[1]], roles[entry[2]]))
                else:
                    gates.append((entry[0], roles[entry[1]]))
        else:
            gates.append(g)
    index_map[len(circuit._gates)] = len(gates)
    out._gates = gates
    out.groups = [
        Group(g.label, index_map[g.start], index_map[g.end])
        for g in circuit.groups
    ]
    return out


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class GroupMetrics:
    label: str
    counts: dict
    depth: int


@dataclass(frozen=True)
class DecomposedMetrics:
    """Figures after replacing each Toffoli by its 15-gate template.

    Counts are exact.  ``depth`` and ``t_depth`` charge each Toffoli a
    full 8-deep / 4-T-stage block, matching composition-style accounting
    (an upper bound on the fully interleaved schedule of the expanded
    circuit).
    """

    counts: dict
    total_gates: int
    t_count: int
    depth: int
    t_depth: int


@dataclass(frozen=True, kw_only=True)
class ResourceReport:
    """Resource figures of a circuit; its fields, in order, are the keys
    of the body of a ``.report.json``.  ``t_count`` and ``t_depth`` are
    the Clifford+T figures (each Toffoli charged its template)."""

    counts: dict
    toffoli_count: int
    t_count: int
    depth: int
    t_depth: int
    width: int
    subcircuits: tuple
    bounds: dict = None
    decomposed: DecomposedMetrics

    @property
    def total_gates(self) -> int:
        return sum(self.counts.values())


def _sweep(gates, count, levels, total):
    """Schedule the next ``count`` gates of the iterator ``gates``.

    ``levels`` holds the three global per-wire levels: depth, Clifford+T
    depth and T-depth, where a Toffoli takes 8 depth units and 4
    T-stages on all three wires.  They are advanced in place, and the
    span's per-kind counts are added to ``total``.  Returns the span's
    counts and its own depth, measured on levels that start at zero on
    every wire.
    """
    level, clevel, tlevel = levels
    rel = [0] * len(level)
    counts = [0] * len(KIND_NAMES)
    for g in islice(gates, count):
        k = g[0]
        counts[k] += 1
        if k == CNOT:
            _, a, b = g
            x, y = level[a], level[b]
            level[a] = level[b] = (x if x > y else y) + 1
            x, y = clevel[a], clevel[b]
            clevel[a] = clevel[b] = (x if x > y else y) + 1
            x, y = tlevel[a], tlevel[b]
            tlevel[a] = tlevel[b] = x if x > y else y
            x, y = rel[a], rel[b]
            rel[a] = rel[b] = (x if x > y else y) + 1
        elif k == TOFFOLI:
            _, a, b, c = g
            x, y, z = level[a], level[b], level[c]
            if y > x:
                x = y
            level[a] = level[b] = level[c] = (x if x > z else z) + 1
            x, y, z = clevel[a], clevel[b], clevel[c]
            if y > x:
                x = y
            clevel[a] = clevel[b] = clevel[c] = \
                (x if x > z else z) + TOFFOLI_DECOMP_DEPTH
            x, y, z = tlevel[a], tlevel[b], tlevel[c]
            if y > x:
                x = y
            tlevel[a] = tlevel[b] = tlevel[c] = \
                (x if x > z else z) + TOFFOLI_DECOMP_T_DEPTH
            x, y, z = rel[a], rel[b], rel[c]
            if y > x:
                x = y
            rel[a] = rel[b] = rel[c] = (x if x > z else z) + 1
        else:
            _, a = g
            level[a] += 1
            clevel[a] += 1
            rel[a] += 1
            if k == T or k == T_DAGGER:
                tlevel[a] += 1
    for k, c in enumerate(counts):
        total[k] += c
    return counts, max(rel, default=0)


def metrics(circuit: Circuit) -> ResourceReport:
    """Exact resource report for a circuit, in one pass over its gates.

    The gates are taken in spans: each group, and the gaps between
    them.  Every span advances the global schedule and yields
    its own counts and depth; only the groups' figures are reported.
    """
    levels = tuple([0] * circuit.width for _ in range(3))
    gates = iter(circuit._gates)
    counts = [0] * len(KIND_NAMES)
    subs = []
    pos = 0
    for grp in circuit.groups:
        _sweep(gates, grp.start - pos, levels, counts)
        gcounts, gdepth = _sweep(gates, grp.end - grp.start, levels, counts)
        pos = grp.end
        subs.append(GroupMetrics(grp.label, dict(zip(KIND_NAMES, gcounts)),
                                 gdepth))
    _sweep(gates, len(circuit._gates) - pos, levels, counts)
    depth, c_depth, t_depth = (max(lv, default=0) for lv in levels)

    tof = counts[TOFFOLI]
    dcounts = dict(zip(KIND_NAMES, counts))
    dcounts["toffoli"] = 0
    for k, per in TOFFOLI_DECOMP_COUNTS.items():
        dcounts[KIND_NAMES[k]] += per * tof
    t_count = dcounts["t"] + dcounts["t_dagger"]
    return ResourceReport(
        counts=dict(zip(KIND_NAMES, counts)),
        toffoli_count=tof,
        t_count=t_count,
        depth=depth,
        t_depth=t_depth,
        width=circuit.width,
        subcircuits=tuple(subs),
        decomposed=DecomposedMetrics(
            counts=dcounts,
            total_gates=sum(dcounts.values()),
            t_count=t_count,
            depth=c_depth,
            t_depth=t_depth,
        ),
    )

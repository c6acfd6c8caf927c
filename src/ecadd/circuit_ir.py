"""Reversible / Clifford+T circuit representation and exact metrics.

Circuits are built over a flat wire table.  Gates are stored internally
as compact tuples ``(kind, wire, ...)`` so that million-gate circuits fit
comfortably in memory; the ``Gate`` dataclass is a convenience view.

Labeled, properly nested gate-index spans ("groups") mark logical
subcircuits; writers may render top-level groups as named blocks.

Metrics are computed by earliest-start scheduling: a gate starts one time
unit after the latest finish time on any of its wires.  ``t_depth`` uses
the same recurrence but only T/T-dagger gates take time.  A second,
"decomposed" set of figures treats each Toffoli as its standard 15-gate
Clifford+T realization: gate counts are exact, while depth and T-depth
charge every Toffoli 8 depth units / 4 T-stages as a block, which is how
composition bounds for Toffoli-level constructions are accounted.

``metrics`` takes every figure in one pass over the gate list, branching
on the gate kind.  Alongside the four global per-wire levels it keeps a
fifth, relative level, reset to zero on every wire at the start of each
top-level group; the largest relative level when the group ends is the
group's own depth, the depth it would have as a circuit by itself.
Per-kind counts of the circuit and of each group come from the same loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice

NOT, CNOT, TOFFOLI, H, T, T_DAGGER, S, S_DAGGER = range(8)

KIND_NAMES = ("not", "cnot", "toffoli", "h", "t", "t_dagger", "s", "s_dagger")
ARITY = (1, 2, 3, 1, 1, 1, 1, 1)
CLASSICAL_KINDS = frozenset((NOT, CNOT, TOFFOLI))
_INVERSE = {T: T_DAGGER, T_DAGGER: T, S: S_DAGGER, S_DAGGER: S}
_T_LIKE = frozenset((T, T_DAGGER))

# Clifford+T realization of TOFFOLI(c1, c2, t): 15 gates, 7 of them
# T/T-dagger, scheduled depth 8 and T-depth 4.  Entries are
# (kind, role...) with roles 0/1 = controls, 2 = target; two-wire
# entries are (CNOT, control_role, target_role).
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

# Per-Toffoli contributions of the template, used for exact decomposed
# gate counts and for block-accounted decomposed depth figures.
TOFFOLI_DECOMP_COUNTS = {CNOT: 6, H: 2, T: 4, T_DAGGER: 3}
TOFFOLI_DECOMP_DEPTH = 8
TOFFOLI_DECOMP_T_DEPTH = 4


class CircuitError(ValueError):
    """Malformed circuit operation (bad wires, arity, or group nesting)."""


@dataclass(frozen=True)
class Gate:
    kind: int
    wires: tuple[int, ...]

    @property
    def name(self) -> str:
        return KIND_NAMES[self.kind]


@dataclass(frozen=True)
class Group:
    label: str
    start: int  # gate index, inclusive
    end: int    # gate index, exclusive
    depth_level: int  # nesting depth; 0 = top level


class Circuit:
    """A gate list over named wires, with labeled subcircuit spans."""

    def __init__(self):
        self.wires: list[str] = []
        self._wire_ids: dict[str, int] = {}
        self._gates: list[tuple] = []
        self.groups: list[Group] = []
        self._group_stack: list[tuple[str, int, int]] = []
        self.out_permutation: list[int] = []

    # -- wires ----------------------------------------------------------

    def add_wire(self, name: str) -> int:
        if name in self._wire_ids:
            raise CircuitError(f"duplicate wire name {name!r}")
        wid = len(self.wires)
        self.wires.append(name)
        self._wire_ids[name] = wid
        self.out_permutation.append(wid)
        return wid

    def wire_id(self, name: str) -> int:
        try:
            return self._wire_ids[name]
        except KeyError:
            raise CircuitError(f"unknown wire {name!r}") from None

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

    def gate(self, index: int) -> Gate:
        g = self._gates[index]
        return Gate(g[0], g[1:])

    def gate_tuples(self) -> list[tuple]:
        return self._gates

    def __iter__(self):
        for g in self._gates:
            yield Gate(g[0], g[1:])

    # -- groups ----------------------------------------------------------

    def begin_group(self, label: str):
        self._group_stack.append((label, len(self._gates), len(self._group_stack)))

    def end_group(self):
        if not self._group_stack:
            raise CircuitError("end_group without matching begin_group")
        label, start, level = self._group_stack.pop()
        self.groups.append(Group(label, start, len(self._gates), level))

    def group(self, label: str):
        return _GroupContext(self, label)

    def top_level_groups(self) -> list[Group]:
        out = [g for g in self.groups if g.depth_level == 0]
        out.sort(key=lambda g: g.start)
        return out

    def check_closed(self):
        if self._group_stack:
            raise CircuitError("unclosed group(s): "
                               + ", ".join(l for l, _, _ in self._group_stack))


class _GroupContext:
    def __init__(self, circuit: Circuit, label: str):
        self.circuit = circuit
        self.label = label

    def __enter__(self):
        self.circuit.begin_group(self.label)
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is None:
            self.circuit.end_group()
        return False


# ----------------------------------------------------------------------
# Structural operations
# ----------------------------------------------------------------------

def inverse(circuit: Circuit) -> Circuit:
    """The inverse circuit: gates reversed, T/S conjugated, groups kept
    (relabeled with an ``I`` prefix) and the output permutation inverted."""
    circuit.check_closed()
    inv = Circuit()
    for name in circuit.wires:
        inv.add_wire(name)
    n = len(circuit._gates)
    gates = []
    for g in reversed(circuit._gates):
        k = g[0]
        k2 = _INVERSE.get(k, k)
        gates.append((k2,) + g[1:] if k2 != k else g)
    inv._gates = gates
    inv.groups = [
        Group("I" + g.label, n - g.end, n - g.start, g.depth_level)
        for g in reversed(circuit.groups)
    ]
    perm = circuit.out_permutation
    ip = [0] * len(perm)
    for logical, physical in enumerate(perm):
        ip[physical] = logical
    inv.out_permutation = ip
    return inv


def compose(first: Circuit, second: Circuit) -> Circuit:
    """Concatenate two circuits over identical wire tables."""
    first.check_closed()
    second.check_closed()
    if first.wires != second.wires:
        raise CircuitError("wire tables differ; circuits cannot be composed")
    if first.out_permutation != list(range(first.width)):
        raise CircuitError(
            "cannot compose after a relabeling output permutation"
        )
    out = Circuit()
    for name in first.wires:
        out.add_wire(name)
    out._gates = first._gates + second._gates
    shift = len(first._gates)
    out.groups = list(first.groups) + [
        Group(g.label, g.start + shift, g.end + shift, g.depth_level)
        for g in second.groups
    ]
    out.out_permutation = list(second.out_permutation)
    return out


def decompose_toffoli(circuit: Circuit) -> Circuit:
    """Rewrite every Toffoli as its 15-gate Clifford+T template.

    Group spans are remapped so labeled blocks still cover the same
    logical gates.  ``qcformat.write_qc(circuit, clifford_t=True)``
    writes the text of this circuit without building it.
    """
    circuit.check_closed()
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
        Group(g.label, index_map[g.start], index_map[g.end], g.depth_level)
        for g in circuit.groups
    ]
    out.out_permutation = list(circuit.out_permutation)
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


@dataclass(frozen=True)
class ResourceReport:
    counts: dict
    total_gates: int
    toffoli_count: int
    t_count: int
    cnot_count: int
    depth: int
    t_depth: int
    width: int
    subcircuits: tuple
    decomposed: DecomposedMetrics
    bounds: dict = field(default=None)


def _sweep(gates, count, levels, total):
    """Schedule the next ``count`` gates of the iterator ``gates``.

    ``levels`` holds the four global per-wire levels: depth, T-depth and
    their block-accounted counterparts, where a Toffoli takes 8 depth
    units and 4 T-stages on all three wires.  They are advanced in place,
    and the span's per-kind counts are added to ``total``.  Returns the
    span's counts and its own depth, measured on levels that start at
    zero on every wire.
    """
    level, tlevel, blevel, btlevel = levels
    rel = [0] * len(level)
    counts = [0] * len(KIND_NAMES)
    for g in islice(gates, count):
        k = g[0]
        counts[k] += 1
        if k == CNOT:
            _, a, b = g
            x, y = level[a], level[b]
            level[a] = level[b] = (x if x > y else y) + 1
            x, y = tlevel[a], tlevel[b]
            tlevel[a] = tlevel[b] = x if x > y else y
            x, y = blevel[a], blevel[b]
            blevel[a] = blevel[b] = (x if x > y else y) + 1
            x, y = btlevel[a], btlevel[b]
            btlevel[a] = btlevel[b] = x if x > y else y
            x, y = rel[a], rel[b]
            rel[a] = rel[b] = (x if x > y else y) + 1
        elif k == TOFFOLI:
            _, a, b, c = g
            x, y, z = level[a], level[b], level[c]
            if y > x:
                x = y
            level[a] = level[b] = level[c] = (x if x > z else z) + 1
            x, y, z = tlevel[a], tlevel[b], tlevel[c]
            if y > x:
                x = y
            tlevel[a] = tlevel[b] = tlevel[c] = x if x > z else z
            x, y, z = blevel[a], blevel[b], blevel[c]
            if y > x:
                x = y
            blevel[a] = blevel[b] = blevel[c] = \
                (x if x > z else z) + TOFFOLI_DECOMP_DEPTH
            x, y, z = btlevel[a], btlevel[b], btlevel[c]
            if y > x:
                x = y
            btlevel[a] = btlevel[b] = btlevel[c] = \
                (x if x > z else z) + TOFFOLI_DECOMP_T_DEPTH
            x, y, z = rel[a], rel[b], rel[c]
            if y > x:
                x = y
            rel[a] = rel[b] = rel[c] = (x if x > z else z) + 1
        else:
            _, a = g
            level[a] += 1
            blevel[a] += 1
            rel[a] += 1
            if k == T or k == T_DAGGER:
                tlevel[a] += 1
                btlevel[a] += 1
    for k, c in enumerate(counts):
        total[k] += c
    return counts, max(rel, default=0)


def metrics(circuit: Circuit) -> ResourceReport:
    """Exact resource report for a circuit, in one pass over its gates.

    The gates are taken in spans: each top-level group, and the gaps
    between them.  Every span advances the global schedule and yields
    its own counts and depth; only the groups' figures are reported.
    """
    circuit.check_closed()
    levels = tuple([0] * circuit.width for _ in range(4))
    gates = iter(circuit._gates)
    counts = [0] * len(KIND_NAMES)
    subs = []
    pos = 0
    for grp in circuit.top_level_groups():
        _sweep(gates, grp.start - pos, levels, counts)
        gcounts, gdepth = _sweep(gates, grp.end - grp.start, levels, counts)
        pos = grp.end
        subs.append(GroupMetrics(grp.label, dict(zip(KIND_NAMES, gcounts)),
                                 gdepth))
    _sweep(gates, len(circuit._gates) - pos, levels, counts)
    depth, t_depth, b_depth, bt_depth = (max(lv, default=0) for lv in levels)

    tof = counts[TOFFOLI]
    dcounts = {KIND_NAMES[k]: counts[k] for k in range(len(KIND_NAMES))}
    dcounts["toffoli"] = 0
    for k, per in TOFFOLI_DECOMP_COUNTS.items():
        dcounts[KIND_NAMES[k]] += per * tof
    dtotal = sum(dcounts.values())
    decomposed = DecomposedMetrics(
        counts=dcounts,
        total_gates=dtotal,
        t_count=dcounts["t"] + dcounts["t_dagger"],
        depth=b_depth,
        t_depth=bt_depth,
    )
    return ResourceReport(
        counts={KIND_NAMES[k]: counts[k] for k in range(len(KIND_NAMES))},
        total_gates=len(circuit._gates),
        toffoli_count=tof,
        t_count=counts[T] + counts[T_DAGGER],
        cnot_count=counts[CNOT],
        depth=depth,
        t_depth=t_depth,
        width=circuit.width,
        subcircuits=tuple(subs),
        decomposed=decomposed,
    )

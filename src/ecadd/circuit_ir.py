"""Reversible / Clifford+T circuit representation and exact metrics.

Circuits are built over a flat wire table.  Gates are stored as runs of
one kind: a run is ``(kind, columns)`` with one ``array('I')`` of wire
ids per wire role (one column for NOT and the one-wire gates, two for
CNOT, three for Toffoli), so a gate costs 4 bytes per wire and
million-gate circuits stay small.  Gates enter a circuit only as whole
runs (``Circuit.add_runs``); ``runs_of`` is where gate tuples
``(kind, wire...)`` become runs.  A run may be shared by several blocks
and circuits, so no run is changed once it has been added.

The runs are kept in blocks (``Circuit.blocks``): one flat list of
``(label, runs)`` in gate order, where a labeled block is a logical
subcircuit and a block labeled None holds the gates between two labeled
ones.  Labeled blocks never nest, like the blocks of a ``.qc`` file;
writers render each as a named subcircuit.

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

``metrics`` takes every figure in one pass over the runs, with one
inner loop per gate kind.  Alongside the three global per-wire levels
it keeps a fourth, relative level, reset to zero on every wire at the
start of each block; the largest relative level when the block ends is
the block's own depth, the depth it would have as a circuit by itself.
Per-kind counts of the circuit and of each block come from the same
pass.
"""

from __future__ import annotations

from array import array
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from itertools import groupby, islice
from operator import itemgetter

NOT, CNOT, TOFFOLI, H, T, T_DAGGER, S, S_DAGGER = range(8)

KIND_NAMES = ("not", "cnot", "toffoli", "h", "t", "t_dagger", "s", "s_dagger")

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
    """Malformed circuit operation (a duplicate wire name, a nested group
    or a label that is not a str)."""


@dataclass(frozen=True)
class GateRuns:
    """The gates a synthesis routine emitted, as its runs in order;
    ``len()`` is the gate count.  A caller replays a block by adding the
    same runs again, or undoes a classical one (its gates are their own
    inverses) by adding ``reversed_runs(block.runs)``."""

    runs: tuple

    def __len__(self) -> int:
        return sum(len(cols[0]) for _, cols in self.runs)


def runs_of(gates) -> list:
    """The runs of gate tuples ``(kind, wire...)``: each stretch of
    consecutive gates of one kind becomes one run."""
    return [(kind, tuple([array("I", col)
                          for col in islice(zip(*run), 1, None)]))
            for kind, run in groupby(gates, itemgetter(0))]


def reversed_runs(runs) -> list:
    """The gates of ``runs`` in reverse order: the runs reversed, each
    as views that read its columns backwards, so no wire id is copied."""
    return [(kind, tuple(memoryview(col)[::-1] for col in cols))
            for kind, cols in reversed(runs)]


class Circuit:
    """Gates over named wires, stored as single-kind runs in a flat list
    of blocks ``(label, runs)``; its inputs and outputs are its wires,
    in wire order."""

    def __init__(self):
        self.wires: list[str] = []
        self._wire_names: set[str] = set()
        # Always ends with an unlabeled block, except inside ``group``.
        self.blocks: list[tuple] = [(None, [])]
        self.num_gates = 0

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

    @property
    def runs(self) -> list:
        """Every run of the circuit, in gate order."""
        return [run for _, runs in self.blocks for run in runs]

    def add_runs(self, runs):
        """Append whole runs, whose wires are taken as valid.  They are
        shared, not copied; empty runs are dropped."""
        block = self.blocks[-1][1]
        for run in runs:
            count = len(run[1][0])
            if count:
                block.append(run)
                self.num_gates += count

    # -- blocks ----------------------------------------------------------

    @contextmanager
    def group(self, label: str):
        """Put the runs added inside the ``with`` block in a block
        labeled ``label``; labeled blocks do not nest.  If the body
        raises, its gates stay in the circuit, unlabeled."""
        if not isinstance(label, str):
            raise CircuitError(f"group label {label!r} is not a str")
        if self.blocks[-1][0] is not None:
            raise CircuitError(f"group {label!r} opened inside another group")
        runs = []
        self.blocks.append((label, runs))
        try:
            yield
        except BaseException:
            self.blocks.pop()
            self.blocks[-1][1].extend(runs)
            raise
        self.blocks.append((None, []))


def decompose_toffoli(circuit: Circuit) -> Circuit:
    """Rewrite every Toffoli as its 15-gate Clifford+T template.

    Each block keeps its label and holds its own gates, a Toffoli run's
    as the runs of its gates' templates; runs of other kinds are shared
    with ``circuit``.
    ``qcformat.write_qc(circuit, clifford_t=True)`` returns the .qc
    bytes of this circuit without building it.
    """
    out = Circuit()
    for name in circuit.wires:
        out.add_wire(name)
    steps = [(tkind, troles) for tkind, *troles in TOFFOLI_TEMPLATE]
    for label, runs in circuit.blocks:
        with nullcontext() if label is None else out.group(label):
            for run in runs:
                kind, cols = run
                if kind != TOFFOLI:
                    out.add_runs((run,))
                    continue
                out.add_runs(runs_of(
                    (tkind, *[roles[r] for r in troles])
                    for roles in zip(*cols) for tkind, troles in steps))
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


def _sweep(runs, levels, total):
    """Schedule the gates of ``runs``, one inner loop per run.

    ``levels`` holds the three global per-wire levels: depth, Clifford+T
    depth and T-depth, where a Toffoli takes 8 depth units and 4
    T-stages on all three wires.  They are advanced in place, and the
    block's per-kind counts are added to ``total``.  Returns the block's
    counts and its own depth, measured on levels that start at zero on
    every wire.
    """
    level, clevel, tlevel = levels
    rel = [0] * len(level)
    counts = [0] * len(KIND_NAMES)
    for kind, cols in runs:
        counts[kind] += len(cols[0])
        if kind == CNOT:
            for a, b in zip(*cols):
                x, y = level[a], level[b]
                level[a] = level[b] = (x if x > y else y) + 1
                x, y = clevel[a], clevel[b]
                clevel[a] = clevel[b] = (x if x > y else y) + 1
                x, y = tlevel[a], tlevel[b]
                tlevel[a] = tlevel[b] = x if x > y else y
                x, y = rel[a], rel[b]
                rel[a] = rel[b] = (x if x > y else y) + 1
        elif kind == TOFFOLI:
            for a, b, c in zip(*cols):
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
        elif kind == T or kind == T_DAGGER:
            for a in cols[0]:
                level[a] += 1
                clevel[a] += 1
                tlevel[a] += 1
                rel[a] += 1
        else:
            for a in cols[0]:
                level[a] += 1
                clevel[a] += 1
                rel[a] += 1
    for k, c in enumerate(counts):
        total[k] += c
    return counts, max(rel, default=0)


def metrics(circuit: Circuit) -> ResourceReport:
    """Exact resource report for a circuit, in one pass over its runs.

    The runs are taken block by block.  Every block advances the global
    schedule and yields its own counts and depth; only the labeled
    blocks' figures are reported.
    """
    levels = tuple([0] * circuit.width for _ in range(3))
    counts = [0] * len(KIND_NAMES)
    subs = []
    for label, runs in circuit.blocks:
        gcounts, gdepth = _sweep(runs, levels, counts)
        if label is not None:
            subs.append(GroupMetrics(label,
                                     dict(zip(KIND_NAMES, gcounts)), gdepth))
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

"""Circuit representation, flat labeled blocks, Toffoli decomposition,
and exact resource metrics."""

import random
from collections import Counter
from contextlib import nullcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    ARITY,
    add_gates,
    block_spans,
    gate_tuples,
    random_classical_circuit,
    ref_metrics,
    ref_simulate,
    ref_write_qc,
)
from ecadd.circuit_ir import (
    CNOT,
    KIND_NAMES,
    H,
    NOT,
    S,
    S_DAGGER,
    T,
    T_DAGGER,
    TOFFOLI,
    TOFFOLI_DECOMP_COUNTS,
    TOFFOLI_TEMPLATE,
    Circuit,
    CircuitError,
    decompose_toffoli,
    metrics,
    reversed_runs,
)
from ecadd.qcformat import SLICE_GATES, parse_qc, write_qc
from ecadd.revsim import Simulator, to_lanes


def three_wire(*names):
    c = Circuit()
    for nm in names:
        c.add_wire(nm)
    return c


def block_gates(c):
    """A circuit's blocks as ``(label, gate tuples)``."""
    return [(label, gate_tuples(runs)) for label, runs in c.blocks]


@st.composite
def grouped_circuits(draw):
    """A random circuit over all eight gate kinds, with empty groups,
    repeated labels and gates outside any group, optionally passed
    through ``decompose_toffoli``."""
    width = draw(st.integers(1, 6))
    c = Circuit()
    for i in range(width):
        c.add_wire(f"w{i}")
    kinds = [k for k in range(len(KIND_NAMES)) if ARITY[k] <= width]

    def gate():
        kind = draw(st.sampled_from(kinds))
        wires = draw(st.permutations(range(width)))[:ARITY[kind]]
        add_gates(c, (kind, *wires))

    for _ in range(draw(st.integers(0, 20))):
        if draw(st.booleans()):
            gate()
        else:
            with c.group(draw(st.sampled_from(("SM", "M", "xyZ", "SR")))):
                for _ in range(draw(st.integers(0, 4))):
                    gate()
    if draw(st.booleans()):
        return decompose_toffoli(c)
    return c


class TestCircuitBuilding:
    def test_wires(self):
        c = three_wire("a", "b")
        assert c.width == 2
        assert c.wires == ["a", "b"]
        with pytest.raises(CircuitError):
            c.add_wire("a")

    def test_groups(self):
        c = three_wire("a", "b")
        with c.group("X"):
            add_gates(c, (NOT, 0))
        add_gates(c, (CNOT, 0, 1))
        with c.group("M"):
            pass
        with c.group("X"):
            add_gates(c, (CNOT, 1, 0))
        assert block_gates(c) == [
            (None, []), ("X", [(NOT, 0)]), (None, [(CNOT, 0, 1)]),
            ("M", []), (None, []), ("X", [(CNOT, 1, 0)]), (None, [])]

    def test_nested_group_rejected(self):
        c = three_wire("a", "b")
        with pytest.raises(CircuitError):
            with c.group("outer"):
                add_gates(c, (NOT, 0))
                with c.group("inner"):
                    add_gates(c, (CNOT, 0, 1))
        # An empty inner group at the outer group's start is refused too.
        with pytest.raises(CircuitError):
            with c.group("outer"):
                with c.group("inner"):
                    pass
        assert block_gates(c) == [(None, [(NOT, 0)])]
        with c.group("next"):
            add_gates(c, (NOT, 1))
        assert block_gates(c) == [(None, [(NOT, 0)]), ("next", [(NOT, 1)]),
                                  (None, [])]

    def test_failed_group_body_records_nothing(self):
        # The failed body's gates stay in the circuit, unlabeled and in
        # order, and the next group starts after them.
        c = three_wire("a", "b")
        add_gates(c, (CNOT, 0, 1))
        with pytest.raises(RuntimeError):
            with c.group("g"):
                add_gates(c, (NOT, 0), (CNOT, 1, 0))
                raise RuntimeError
        assert block_gates(c) == [(None, [(CNOT, 0, 1), (NOT, 0),
                                          (CNOT, 1, 0)])]
        with c.group("h"):
            add_gates(c, (NOT, 0))
        assert block_gates(c) == [
            (None, [(CNOT, 0, 1), (NOT, 0), (CNOT, 1, 0)]),
            ("h", [(NOT, 0)]), (None, [])]
        assert block_spans(c) == [("h", 3, 4)]
        assert c.num_gates == 4

    @pytest.mark.parametrize("label", [None, 3, b"S"])
    def test_group_label_must_be_a_str(self, label):
        # A None label would read as an unlabeled block, and the writer
        # cannot name a block by a label that is not text.
        c = three_wire("a")
        with pytest.raises(CircuitError):
            with c.group(label):
                add_gates(c, (NOT, 0))
        assert block_gates(c) == [(None, [])]
        assert write_qc(c) == b".v a\n.i a\n.o a\n\nBEGIN\nEND\n"

    @settings(max_examples=100, deadline=None)
    @given(grouped_circuits())
    def test_blocks_round_trip_through_qc(self, c):
        # The same blocks, gate for gate; a repeated label comes back
        # with the suffix that made its subcircuit name unique.
        back = parse_qc(write_qc(c).decode())
        assert [(label is None, g) for label, g in block_gates(back)] == \
            [(label is None, g) for label, g in block_gates(c)]
        for (got, _), (want, _) in zip(back.blocks, c.blocks):
            assert got == want or got.startswith(want + "_")


class TestMetrics:
    def test_counts_and_depth(self):
        c = three_wire("a", "b", "c")
        add_gates(c, (NOT, 0), (CNOT, 0, 1), (CNOT, 0, 2), (TOFFOLI, 0, 1, 2))
        r = metrics(c)
        assert r.counts["not"] == 1
        assert r.counts["cnot"] == 2
        assert r.toffoli_count == 1
        assert r.total_gates == 4
        assert r.width == 3
        assert r.depth == 4  # all gates chained through wire 0
        # The Toffoli is charged its Clifford+T template.
        assert r.t_depth == 4 and r.t_count == 7

    def test_parallel_gates_share_a_level(self):
        c = three_wire("a", "b", "c", "d")
        add_gates(c, (CNOT, 0, 1), (CNOT, 2, 3))
        assert metrics(c).depth == 1

    def test_t_depth_counts_only_t_stages(self):
        c = three_wire("a")
        add_gates(c, *((kind, 0) for kind in (T, H, T_DAGGER, S, T)))
        r = metrics(c)
        assert r.t_count == 3
        assert r.t_depth == 3
        assert r.depth == 5

    def test_group_metrics(self):
        c = three_wire("a", "b")
        with c.group("blk"):
            add_gates(c, (CNOT, 0, 1), (CNOT, 0, 1))
        r = metrics(c)
        assert len(r.subcircuits) == 1
        sub = r.subcircuits[0]
        assert sub.label == "blk"
        assert sub.counts["cnot"] == 2
        assert sub.depth == 2

    def test_decomposed_figures(self):
        c = three_wire("a", "b", "c")
        add_gates(c, (TOFFOLI, 0, 1, 2), (CNOT, 0, 1))
        r = metrics(c)
        d = r.decomposed
        assert d.counts["toffoli"] == 0
        assert d.counts["cnot"] == 1 + 6
        assert d.counts["h"] == 2
        assert d.t_count == 7
        assert d.total_gates == 16
        # Block accounting: 8 depth units / 4 T-stages per Toffoli.
        assert d.depth == 9
        assert d.t_depth == 4


    @settings(max_examples=400, deadline=None)
    @given(grouped_circuits())
    def test_one_pass_engine_matches_reference(self, c):
        r = metrics(c)
        (depth, _, b_depth, bt_depth), subs = ref_metrics(c)
        assert (r.depth, r.t_depth) == (depth, bt_depth)
        assert (r.decomposed.depth, r.decomposed.t_depth) == (b_depth, bt_depth)
        assert [(s.label, s.counts, s.depth) for s in r.subcircuits] == subs
        kinds = Counter(KIND_NAMES[g[0]] for g in gate_tuples(c.runs))
        assert r.counts == {name: kinds[name] for name in KIND_NAMES}
        assert r.t_count == kinds["t"] + kinds["t_dagger"] \
            + 7 * kinds["toffoli"]

    @settings(max_examples=200, deadline=None)
    @given(grouped_circuits())
    def test_t_figures_are_those_of_the_clifford_t_circuit(self, c):
        # Written with each Toffoli expanded and parsed back, the circuit
        # has no Toffoli; its T figures are the gate-level ones of the
        # reference, and the block-accounted figures bound them.
        r = metrics(c)
        expanded = parse_qc(write_qc(c, clifford_t=True).decode())
        e = metrics(expanded)
        (depth, t_depth, _, _), _ = ref_metrics(expanded)
        kinds = Counter(g[0] for g in gate_tuples(expanded.runs))
        assert (e.t_count, e.t_depth) == (kinds[T] + kinds[T_DAGGER], t_depth)
        assert e.depth == e.decomposed.depth == depth
        assert e.t_count == r.t_count
        assert e.t_depth <= r.t_depth and e.depth <= r.decomposed.depth


class TestToffoliTemplate:
    def test_unitary_equals_toffoli_exactly(self):
        gate_1q = {
            H: np.array([[1, 1], [1, -1]]) / np.sqrt(2),
            T: np.diag([1, np.exp(1j * np.pi / 4)]),
            T_DAGGER: np.diag([1, np.exp(-1j * np.pi / 4)]),
            S: np.diag([1, 1j]),
            S_DAGGER: np.diag([1, -1j]),
        }

        def embed_1q(u, wire, width):
            mats = [np.eye(2)] * width
            mats[wire] = u
            full = np.array([[1.0]])
            # Wire 0 is the least-significant bit of the state index.
            for m in mats:
                full = np.kron(m, full)
            return full

        def embed_cnot(ctrl, tgt, width):
            dim = 1 << width
            u = np.zeros((dim, dim))
            for s in range(dim):
                out = s ^ (1 << tgt) if s >> ctrl & 1 else s
                u[out, s] = 1.0
            return u

        width = 3
        u = np.eye(1 << width, dtype=complex)
        for entry in TOFFOLI_TEMPLATE:
            if entry[0] == CNOT:
                g = embed_cnot(entry[1], entry[2], width)
            else:
                g = embed_1q(gate_1q[entry[0]], entry[1], width)
            u = g @ u

        dim = 1 << width
        toffoli = np.zeros((dim, dim))
        for s in range(dim):
            out = s ^ 4 if (s & 3) == 3 else s  # roles 0,1 control, 2 target
            toffoli[out, s] = 1.0
        # Exact equality as a matrix (no global phase correction needed).
        assert np.allclose(u, toffoli, atol=1e-12)

    def test_template_resource_quadruple(self):
        c = three_wire("a", "b", "c")
        add_gates(c, *TOFFOLI_TEMPLATE)
        r = metrics(c)
        assert r.total_gates == 15
        assert r.t_count == 7
        assert r.depth == 8
        assert r.t_depth == 4
        assert sum(TOFFOLI_DECOMP_COUNTS.values()) == 15


class TestStructuralOps:
    def test_inverse_undoes_classical_circuit(self, rng):
        # NOT, CNOT and Toffoli are self-inverse, so a classical circuit
        # followed by its gates in reverse order is the identity; step 11
        # of the point addition uncomputes a product this way.
        for _ in range(50):
            c = random_classical_circuit(rng)
            c.add_runs(reversed_runs(c.runs))
            sim = Simulator(c)
            for _ in range(20):
                s = rng.getrandbits(c.width)
                assert sim.run(s) == s

    def test_decompose_toffoli(self, rng):
        for _ in range(30):
            c = random_classical_circuit(rng)
            r = metrics(c)
            d = decompose_toffoli(c)
            rd = metrics(d)
            assert rd.toffoli_count == 0
            assert rd.total_gates == r.total_gates + 14 * r.toffoli_count
            assert rd.t_count == 7 * r.toffoli_count
            # Each block keeps its label and holds its own gates, each
            # Toffoli expanded to 15.
            assert [label for label, _ in d.blocks] == \
                [label for label, _ in c.blocks]
            for (_, runs), (_, druns) in zip(c.blocks, d.blocks):
                gates = gate_tuples(runs)
                tof = sum(g[0] == TOFFOLI for g in gates)
                assert len(gate_tuples(druns)) == len(gates) + 14 * tof
                assert [g for g in gate_tuples(druns) if g[0] == NOT] == \
                    [g for g in gates if g[0] == NOT]


@st.composite
def run_sequences(draw):
    """(width, segments): each segment is a group label, or None for
    gates outside any group, with its runs as (kind, gate tuples).  Runs
    of every kind, empty groups, and runs longer than a writer slice;
    only NOT, CNOT and Toffoli when the draw is classical."""
    width = draw(st.integers(3, 6))
    classical = draw(st.booleans())
    kinds = [NOT, CNOT, TOFFOLI] if classical else list(range(len(KIND_NAMES)))
    rng = random.Random(draw(st.integers(0, 2**32)))
    segments = []
    for _ in range(draw(st.integers(0, 6))):
        label = draw(st.sampled_from((None, "S", "M", "IM")))
        runs = []
        for _ in range(draw(st.integers(0, 3))):
            kind = draw(st.sampled_from(kinds))
            count = draw(st.sampled_from((1, 2, 7, SLICE_GATES + 3)))
            runs.append((kind, [(kind, *rng.sample(range(width), ARITY[kind]))
                                for _ in range(count)]))
        segments.append((label, runs))
    return width, segments


def build_runs(width, segments, bulk):
    """The circuit of ``segments``, added as one-gate runs or, with
    ``bulk``, as one whole run per drawn run."""
    c = Circuit()
    for i in range(width):
        c.add_wire(f"w{i}")
    for label, runs in segments:
        with c.group(label) if label else nullcontext():
            for kind, gates in runs:
                if bulk:
                    add_gates(c, *gates)
                else:
                    for g in gates:
                        add_gates(c, g)
    return c


class TestRunStore:
    @settings(max_examples=60, deadline=None)
    @given(run_sequences())
    def test_gate_by_gate_and_bulk_runs_agree(self, drawn):
        width, segments = drawn
        gates = [g for _, runs in segments for _, run in runs for g in run]
        one, bulk = (build_runs(width, segments, b) for b in (False, True))
        assert gate_tuples(one.runs) == gate_tuples(bulk.runs) == gates
        assert one.num_gates == bulk.num_gates == len(gates)
        assert block_gates(one) == block_gates(bulk)
        (depth, _, b_depth, bt_depth), subs = ref_metrics(one)
        for c in (one, bulk):
            r = metrics(c)
            assert (r.depth, r.t_depth, r.decomposed.depth) == \
                (depth, bt_depth, b_depth)
            assert [(s.label, s.counts, s.depth) for s in r.subcircuits] == subs
            assert write_qc(c) == ref_write_qc(one).encode()
        assert metrics(one) == metrics(bulk)
        assert write_qc(one, clifford_t=True) == write_qc(bulk, clifford_t=True)
        if all(k in (NOT, CNOT, TOFFOLI) for k, *_ in gates):
            draw = random.Random(len(gates)).getrandbits
            states = [draw(width) for _ in range(5)]
            want = to_lanes([ref_simulate(one, s) for s in states], width)
            for c in (one, bulk):
                got = Simulator(c).run_lanes(to_lanes(states, width), 31)
                assert got == want

    def test_append_after_a_replay_leaves_the_shared_runs_unchanged(self):
        c = three_wire("a", "b", "c")
        with c.group("F"):
            add_gates(c, (CNOT, 0, 1), (CNOT, 1, 2))
        fwd = list(c.runs)
        before = gate_tuples(fwd)
        # Each replay is followed by a run of the shared run's kind,
        # which must not change the shared run.
        with c.group("IF"):
            c.add_runs(fwd)
        add_gates(c, (CNOT, 0, 2))
        c.add_runs(fwd)
        add_gates(c, (CNOT, 2, 0))
        c.add_runs(reversed_runs(fwd))
        add_gates(c, (CNOT, 1, 0))
        assert gate_tuples(fwd) == before
        assert c.runs[1] is c.runs[3] is fwd[0]
        assert gate_tuples(c.runs) == (
            before * 2 + [(CNOT, 0, 2)] + before + [(CNOT, 2, 0)]
            + before[::-1] + [(CNOT, 1, 0)])
        assert c.num_gates == 11

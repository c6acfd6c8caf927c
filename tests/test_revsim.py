"""Bitsliced simulation: the lane kernel and its one-lane case."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ARITY, add_gates, random_classical_circuit, ref_simulate
from ecadd.circuit_ir import CNOT, H, NOT, TOFFOLI, Circuit
from ecadd.revsim import Simulator, UnsupportedGate, to_lanes


def build(width, gates):
    c = Circuit()
    for i in range(width):
        c.add_wire(f"w{i}")
    add_gates(c, *gates)
    return c


class TestGateSemantics:
    def test_not(self):
        c = build(2, [(NOT, 1)])
        assert Simulator(c).run(0b00) == 0b10
        assert Simulator(c).run(0b10) == 0b00

    def test_cnot(self):
        c = build(2, [(CNOT, 0, 1)])
        assert Simulator(c).run(0b00) == 0b00
        assert Simulator(c).run(0b01) == 0b11
        assert Simulator(c).run(0b10) == 0b10
        assert Simulator(c).run(0b11) == 0b01

    def test_toffoli(self):
        c = build(3, [(TOFFOLI, 0, 1, 2)])
        for s in range(8):
            expect = s ^ 4 if (s & 3) == 3 else s
            assert Simulator(c).run(s) == expect

    def test_state_range_checked(self):
        sim = Simulator(build(2, []))
        with pytest.raises(ValueError):
            sim.run(4)
        with pytest.raises(ValueError):
            sim.run(-1)

    def test_non_classical_rejected(self):
        c = build(1, [(H, 0)])
        with pytest.raises(UnsupportedGate):
            Simulator(c)


class TestAgainstReference:
    def test_random_circuits_match_reference(self, rng):
        for _ in range(200):
            c = random_classical_circuit(rng)
            sim = Simulator(c)
            for _ in range(25):
                s = rng.getrandbits(c.width)
                assert sim.run(s) == ref_simulate(c, s)

    def test_all_basis_states_permute(self, rng):
        # One lane per basis state: lane k of wire i is bit i of k.
        for _ in range(40):
            c = random_classical_circuit(rng, max_wires=6)
            lanes = 1 << c.width
            out = Simulator(c).run_lanes(
                to_lanes(list(range(lanes)), c.width), (1 << lanes) - 1)
            images = [sum((w >> k & 1) << i for i, w in enumerate(out))
                      for k in range(lanes)]
            assert sorted(images) == list(range(lanes))


def naive_lanes(states, width):
    return [sum((s >> i & 1) << k for k, s in enumerate(states))
            for i in range(width)]


@st.composite
def lane_jobs(draw):
    """A random NOT/CNOT/Toffoli circuit and 1 to 300 input states."""
    width = draw(st.integers(1, 8))
    c = Circuit()
    for i in range(width):
        c.add_wire(f"w{i}")
    kinds = [k for k in (NOT, CNOT, TOFFOLI) if ARITY[k] <= width]
    for _ in range(draw(st.integers(0, 40))):
        kind = draw(st.sampled_from(kinds))
        add_gates(c, (kind, *draw(st.permutations(range(width)))[:ARITY[kind]]))
    states = draw(st.lists(st.integers(0, (1 << width) - 1),
                           min_size=1, max_size=300))
    return c, states


class TestLanes:
    @settings(max_examples=200, deadline=None)
    @given(lane_jobs())
    def test_lane_kernel_matches_reference(self, job):
        c, states = job
        lanes = to_lanes(states, c.width)
        assert lanes == naive_lanes(states, c.width)
        out = Simulator(c).run_lanes(lanes, (1 << len(states)) - 1)
        assert out == naive_lanes([ref_simulate(c, s) for s in states],
                                  c.width)

    def test_input_lanes_left_unchanged(self):
        lanes = [0b01]
        assert Simulator(build(1, [(NOT, 0)])).run_lanes(lanes, 0b11) == [0b10]
        assert lanes == [0b01]

    def test_one_integer_per_wire_required(self):
        with pytest.raises(ValueError):
            Simulator(build(1, [])).run_lanes([0, 0], 1)

    def test_to_lanes_edge_cases(self):
        assert to_lanes([], 3) == [0, 0, 0]
        assert to_lanes([0, 0], 0) == []
        assert to_lanes([0b10, 0b01], 2) == [0b10, 0b01]

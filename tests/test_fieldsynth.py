"""Synthesis of field operations as reversible circuits."""

import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    first_irreducible,
    gate_tuples,
    ref_apply,
    ref_entries,
    ref_field_mul,
    ref_identity,
    ref_max_degree,
)
from ecadd.circuit_ir import CNOT, CircuitError, metrics, reversed_runs
from ecadd.ecoracle import Curve, random_point
from ecadd.edgecolor import color_edges, graph_of_matrix
from ecadd.fieldsynth import (
    RegisterOverlap,
    new_circuit,
    standalone_multiplier,
    synth_add_inplace,
    synth_linear,
    synth_mult,
)
from ecadd.gf2field import IrreduciblePoly
from ecadd.linmaps import (
    BinMatrix,
    matrix_of_const_mul,
    matrix_of_sqrt,
    matrix_of_squaring,
)
from ecadd.revsim import Simulator


def run2(circuit, a, b, n):
    """Simulate a two-register circuit and split the result."""
    out = Simulator(circuit).run(a | b << n)
    return out & ((1 << n) - 1), out >> n


class TestLinearSynthesis:
    def test_cnot_count_and_action(self, rng):
        for _ in range(60):
            n = rng.randint(1, 8)
            m = BinMatrix(n, tuple(rng.getrandbits(n) for _ in range(n)))
            c, (src, dst) = new_circuit(n, "s", "d")
            synth_linear(c, m, src, dst)
            r = metrics(c)
            assert r.total_gates == r.counts["cnot"] == m.weight
            assert r.depth == ref_max_degree(ref_entries(m))
            for _ in range(15):
                a, b = rng.getrandbits(n), rng.getrandbits(n)
                sa, sb = run2(c, a, b, n)
                assert sa == a, "source register must be preserved"
                assert sb == b ^ ref_apply(m, a)

    def test_dimension_mismatch(self, f8):
        c, (src, dst) = new_circuit(4, "s", "d")
        with pytest.raises(CircuitError):
            synth_linear(c, ref_identity(3), src, dst)

    def test_overlap_rejected(self):
        c, (src,) = new_circuit(3, "s")
        with pytest.raises(RegisterOverlap):
            synth_linear(c, ref_identity(3), src, src)

    def test_add_inplace(self, rng):
        n = 6
        c, (src, dst) = new_circuit(n, "s", "d")
        synth_add_inplace(c, src, dst)
        r = metrics(c)
        assert r.counts["cnot"] == n and r.depth == 1
        for _ in range(20):
            a, b = rng.getrandbits(n), rng.getrandbits(n)
            assert run2(c, a, b, n) == (a, a ^ b)


def square_matrices():
    """Random n x n matrices, n = 1..8, the zero and identity maps among
    them."""
    return st.integers(1, 8).flatmap(lambda n: st.one_of(
        st.just(BinMatrix(n, (0,) * n)),
        st.just(ref_identity(n)),
        st.lists(st.integers(0, (1 << n) - 1), min_size=n, max_size=n)
        .map(lambda rows: BinMatrix(n, tuple(rows)))))


def assert_run_follows_layers(m, layers):
    """The CNOTs that synth_linear emits for ``m`` are ``layers``
    flattened, source column and target row mapped through the
    registers.  The source register does not start at wire 0, so a
    column that skips the mapping shows."""
    c, (dst, src) = new_circuit(m.n, "d", "s")
    synth_linear(c, m, src, dst)
    assert gate_tuples(c.runs) == [(CNOT, src.wires[i], dst.wires[j])
                                   for layer in layers for i, j in layer]


class TestPinnedLayers:
    # sha256 of repr(color_edges(g).layers(g)), g = graph_of_matrix(m),
    # for the six distinct linear maps of point addition on
    # y^2 + xy = x^3 + x^2 + 1 (a2 = 1, so the a2 map is the identity) at
    # a seeded point.  The layers fix the gate order of every linear
    # block, so a change to the edge coloring that moves any CNOT shows
    # here, and each pinned matrix's emitted run is checked against them.
    PINNED = {
        "1+x^3+x^6+x^7+x^163": {
            "S": "836b44fe57efb3664c88abdd2da1c239734bcd82afff54c5d0d404a186e95480",
            "SR": "041878df01972462e7c36a70e152b2612c0339c8cab914ce7805db1305cd2f21",
            "X": "81a4b2894be53b59da1ebd0204bff952fe9d3f991d26ba47882a3e057eb64ed7",
            "SM": "51172206f520c669278fc67552da2378dfd69ebc19e9538d9efa0163bdfabaa0",
            "xyZ": "86e19f3cf0ee4be26b424d7edb66fc41a0b1d3d3f21d68c70e071184e14b9f52",
            "a2": "80675bf455ab2636e5635f6c3d2570b4a8f238a2900cf15747bd84a057934136",
        },
        "1+x^74+x^233": {
            "S": "e7c9d11f214f36476c5057fdfb15ef9a6b1b6110e2db819e965ef64c1679a07a",
            "SR": "a6872832cb5752ae29f1d33c1bc6bc7b727ec1ad15449c3e137dc2bb844f6d0a",
            "X": "55d1cb0e58638cf33e67970d92bd4e73a554d05884fdfb56b1d6d49f83ab950b",
            "SM": "1dbaef1e878a05e8693c321fabc2ce9ea1fd87d0ca829c052f423aaa63b51573",
            "xyZ": "82060661e41fd9967507acf7aa75e2e2d223005f9c7a8de6017360805a6eeeed",
            "a2": "431c20a04a1a4ba493886505e1c0f7fc9d79eb64c1acfb0b884f5143a318b305",
        },
    }

    @pytest.mark.parametrize("poly", sorted(PINNED))
    def test_dss_layers_pinned(self, poly):
        fld = IrreduciblePoly.from_string(poly)
        curve = Curve(fld.one(), fld.one())
        p2 = random_point(curve, random.Random(163))
        sq = matrix_of_squaring(fld)
        matrices = {
            "S": sq,
            "SR": matrix_of_sqrt(fld),
            "X": matrix_of_const_mul(p2.x),
            "SM": matrix_of_const_mul(p2.y) @ sq,
            "xyZ": matrix_of_const_mul(p2.x + p2.y) @ sq,
            "a2": matrix_of_const_mul(curve.a2),
        }
        got = {}
        for label, m in matrices.items():
            g = graph_of_matrix(m)
            layers = color_edges(g).layers(g)
            got[label] = hashlib.sha256(repr(layers).encode()).hexdigest()
            assert_run_follows_layers(m, layers)
        assert got == self.PINNED[poly]

    @settings(max_examples=150, deadline=None)
    @given(square_matrices())
    def test_emitted_run_follows_layers(self, m):
        g = graph_of_matrix(m)
        assert_run_follows_layers(m, color_edges(g).layers(g))


class TestFieldOps:
    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_square_sqrt_const_mul(self, n, rng):
        fld = first_irreducible(n)
        k = fld.elem(rng.getrandbits(n) | 1)

        cases = []
        c1, (s1, d1) = new_circuit(n, "s", "d")
        synth_linear(c1, matrix_of_squaring(fld), s1, d1)
        cases.append((c1, lambda a: fld.elem(a).square().value))
        c2, (s2, d2) = new_circuit(n, "s", "d")
        synth_linear(c2, matrix_of_sqrt(fld), s2, d2)
        cases.append((c2, lambda a: fld.elem(a).sqrt().value))
        c3, (s3, d3) = new_circuit(n, "s", "d")
        synth_linear(c3, matrix_of_const_mul(k), s3, d3)
        cases.append((c3, lambda a: (k * fld.elem(a)).value))
        c4, (s4, d4) = new_circuit(n, "s", "d")
        synth_linear(c4, matrix_of_const_mul(k) @ matrix_of_squaring(fld),
                     s4, d4)
        cases.append((c4, lambda a: (k * fld.elem(a).square()).value))

        for circ, f in cases:
            for a in range(1 << n):
                sa, sb = run2(circ, a, 0, n)
                assert (sa, sb) == (a, f(a))
            # Accumulator semantics: dst ^= f(src).
            sa, sb = run2(circ, 1, (1 << n) - 1, n)
            assert sb == ((1 << n) - 1) ^ f(1)


class TestMultiplier:
    @pytest.mark.parametrize("n", [2, 3])
    def test_exhaustive_against_reference(self, n):
        fld = first_irreducible(n)
        mod = fld.bits
        circ = standalone_multiplier(fld)
        sim = Simulator(circ)
        mask = (1 << n) - 1
        for s in range(1 << (3 * n)):
            a, b, acc = s & mask, s >> n & mask, s >> 2 * n & mask
            out = sim.run(s)
            oa, ob, oacc = out & mask, out >> n & mask, out >> 2 * n & mask
            assert (oa, ob) == (a, b), "operands must be restored"
            assert oacc == acc ^ ref_field_mul(a, b, mod)

    def test_gate_budget(self):
        for n in (2, 3, 5, 8, 13):
            fld = first_irreducible(n)
            r = metrics(standalone_multiplier(fld))
            w = fld.bits.bit_count()
            assert r.toffoli_count == n * n
            assert r.counts["cnot"] == 2 * (n - 1) * (w - 2)
            assert r.counts["not"] == 0
            assert r.width == 3 * n, "no ancillae"

    def test_width_mismatch_rejected(self, f8):
        c, (a, b, acc) = new_circuit(4, "a", "b", "acc")
        with pytest.raises(CircuitError):
            synth_mult(c, f8, a, b, acc)

    def test_overlap_rejected(self, f8):
        c, (a, b) = new_circuit(3, "a", "b")
        with pytest.raises(RegisterOverlap):
            synth_mult(c, f8, a, b, a)

    def test_reversed_gates_uncompute(self, f16, rng):
        n = 4
        c, (a, b, acc) = new_circuit(n, "a", "b", "acc")
        block = synth_mult(c, f16, a, b, acc)
        # len() of the returned runs is their gate count.
        assert len(block) == c.num_gates == n * n + 2 * (n - 1)
        c.add_runs(reversed_runs(block.runs))
        sim = Simulator(c)
        for _ in range(50):
            s = rng.getrandbits(3 * n)
            assert sim.run(s) == s

"""The full point-addition circuit: structure, semantics, bounds."""

import hashlib
import itertools
import random
import tracemalloc

import pytest

import ecadd.pointaddsynth as pas
from conftest import (
    block_spans,
    circuit_of,
    first_irreducible,
    gate_tuples,
    read_register,
    ref_exhaustive_inputs,
    ref_field_mul,
    ref_verify_point_add,
)
from ecadd.circuit_ir import CNOT, TOFFOLI, metrics
from ecadd.ecoracle import (
    AffinePoint,
    Curve,
    affine_add,
    aldaoud_madd,
    all_affine_points,
    negate,
    random_point,
)
from ecadd.gf2field import IrreduciblePoly
from ecadd.pointaddsynth import (
    REGISTER_ORDER,
    EXHAUSTIVE_MAX_N,
    BoundViolation,
    PointAddLayout,
    SynthesisError,
    check_bounds,
    exhaustive_inputs,
    multiplier_report,
    synth_point_add,
    verify_point_add,
)
from ecadd.qcformat import parse_qc, write_qc
from ecadd.revsim import Simulator


def toy_job():
    fld = IrreduciblePoly.from_string("1+x")
    curve = Curve(fld.elem(1), fld.elem(1))
    return curve, AffinePoint(fld.elem(1), fld.elem(1))


def curve_with_point(n, seed=0):
    fld = first_irreducible(n)
    rng = random.Random(seed)
    while True:
        a2 = fld.elem(rng.getrandbits(n))
        a6 = fld.elem(rng.getrandbits(n) | 1)
        curve = Curve(a2, a6)
        pts = all_affine_points(curve)
        if len(pts) >= 4:
            return curve, rng.choice(pts)


class TestValidation:
    def test_p2_must_be_affine(self, f8):
        curve = Curve(f8.elem(1), f8.elem(1))
        with pytest.raises(SynthesisError):
            synth_point_add(curve, AffinePoint.infinity())

    def test_p2_field_must_match(self, f8, f16):
        curve = Curve(f8.elem(1), f8.elem(1))
        with pytest.raises(SynthesisError):
            synth_point_add(curve, AffinePoint(f16.elem(1), f16.elem(1)),
                            allow_off_curve=True)

    def test_off_curve_rejected_without_flag(self, f8):
        curve = Curve(f8.elem(1), f8.elem(1))
        off = AffinePoint(f8.elem(1), f8.elem(1))
        with pytest.raises(SynthesisError):
            synth_point_add(curve, off)
        synth_point_add(curve, off, allow_off_curve=True)  # flag accepts it


class TestToyStructure:
    def test_resource_quadruple(self):
        curve, p2 = toy_job()
        _, report = synth_point_add(curve, p2, allow_off_curve=True)
        assert report.width == 11
        assert report.toffoli_count == 5
        assert report.decomposed.t_count == 35
        assert report.decomposed.t_depth == 16

    def test_block_labels_in_order(self):
        curve, p2 = toy_job()
        circ, _ = synth_point_add(curve, p2, allow_off_curve=True)
        labels = [label for label, _, _ in block_spans(circ)]
        # Multiplier blocks and the linear blocks around them.
        assert labels == ["SM", "X", "M", "S", "S", "S", "a2", "X", "M",
                          "M", "xyZ", "M", "IM", "IX", "Ia2", "IS", "SR",
                          "IX", "ISM"]

    def test_decompose_option_expands_toffolis(self):
        curve, p2 = toy_job()
        circ, report = synth_point_add(curve, p2, allow_off_curve=True)
        m = metrics(parse_qc(write_qc(circ, clifford_t=True).decode()))
        assert m.toffoli_count == 0
        assert m.t_count == 35
        # The report describes the Toffoli-level circuit.
        assert report.toffoli_count == 5


class TestReversalBlocks:
    # (reversal, forward) group indices in the block order above: ISM
    # undoes SM, the IX blocks of steps 15 and 13 the X blocks of steps
    # 2 and 5, IS the B squaring and Ia2 the a2 block.
    PAIRS = ((18, 0), (17, 1), (13, 7), (15, 5), (14, 6))
    # IM undoes step 7's Z3p += A * Cp.
    IM_PAIR = (12, 9)

    @staticmethod
    def n8_job():
        # a2 not in {0, 1}, and x2, y2 and x2 + y2 nonzero, so that no
        # block of a pair is empty.
        fld = first_irreducible(8)
        curve = Curve(fld.elem(0b1011), fld.elem(1))
        p2 = next(p for p in all_affine_points(curve)
                  if p.x.value and p.y.value and p.x != p.y)
        return curve, p2

    @pytest.mark.parametrize("job", ["toy", "n8"])
    def test_reversals_replay_the_forward_tuples(self, job):
        # Each reversal block holds its forward block's run objects: the
        # same runs for a linear block, and for IM the step-7 product's
        # runs reversed, as views of the same columns read backwards.
        curve, p2 = toy_job() if job == "toy" else self.n8_job()
        circ, _ = synth_point_add(curve, p2, allow_off_curve=True)
        spans = [runs for label, runs in circ.blocks if label is not None]
        groups = block_spans(circ)
        for rev, fwd in self.PAIRS:
            (rl, rs, rend), (fl, fs, fend) = groups[rev], groups[fwd]
            assert rl == "I" + fl
            assert rend - rs == fend - fs > 0, rl
            assert len(spans[rev]) == len(spans[fwd]) > 0, rl
            assert all(a is b for a, b in zip(spans[rev], spans[fwd])), rl
        im, product = self.IM_PAIR
        assert (groups[im][0], groups[product][0]) == ("IM", "M")
        assert len(spans[im]) == len(spans[product])
        for (rk, rcols), (fk, fcols) in zip(spans[im],
                                            reversed(spans[product])):
            assert rk == fk
            assert all(rc.obj is fc and rc.tolist() == fc.tolist()[::-1]
                       for rc, fc in zip(rcols, fcols))
        assert gate_tuples(spans[im]) == gate_tuples(spans[product])[::-1]


class TestA2Block:
    # Step 5's Bsq += a2 * C and its reversal.  For a2 = 1 the edge
    # coloring of the identity must give the n transversal CNOTs in row
    # order, the gates (and .qc bytes) of the DSS curves, which have
    # a2 = 1.
    @pytest.mark.parametrize("poly", ["n8", "1+x^3+x^6+x^7+x^163"])
    @pytest.mark.parametrize("a2", [0, 1, 0b1011])
    def test_a2_and_ia2_gates(self, poly, a2):
        fld = (first_irreducible(8) if poly == "n8"
               else IrreduciblePoly.from_string(poly))
        n = fld.n
        curve = Curve(fld.elem(a2), fld.elem(1))
        p2 = AffinePoint(fld.elem(2), fld.elem(5))
        circ, _ = synth_point_add(curve, p2, allow_off_curve=True)
        layout = PointAddLayout(n)
        oc, ob = layout.offset("C"), layout.offset("Bsq")
        # One CNOT C_i -> Bsq_j per set bit j of column i = a2 * x^i.
        entries = [(CNOT, oc + i, ob + j) for i in range(n)
                   for j in range(n)
                   if ref_field_mul(a2, 1 << i, fld.bits) >> j & 1]
        gates = gate_tuples(circ.runs)
        blocks = {label: gates[start:end]
                  for label, start, end in block_spans(circ)
                  if label in ("a2", "Ia2")}
        assert set(blocks) == {"a2", "Ia2"}
        for label, got in blocks.items():
            if a2 == 1:
                assert got == [(CNOT, oc + i, ob + i) for i in range(n)]
            else:
                assert len(got) == len(entries), label
                assert sorted(got) == sorted(entries), label


class TestSemantics:
    @pytest.mark.parametrize("n", [2, 3])
    def test_exhaustive_verification(self, n):
        curve, p2 = curve_with_point(n)
        circ, _ = synth_point_add(curve, p2)
        result = verify_point_add(circ, curve, p2, exhaustive=True)
        assert result.ok, result.failure
        assert result.cases > 0

    @pytest.mark.parametrize("n", [2, 3])
    def test_exhaustive_inputs_match_all_triples(self, n):
        fld = first_irreducible(n)
        for a2v in range(1 << n):
            for a6v in range(1, 1 << n):
                curve = Curve(fld.elem(a2v), fld.elem(a6v))
                for p2 in all_affine_points(curve):
                    got = [(p.X.value, p.Y.value, p.Z.value)
                           for p in exhaustive_inputs(curve, p2)]
                    assert len(got) == len(set(got))
                    want = ref_exhaustive_inputs(curve, p2)
                    assert sorted(got) == sorted(want)

    def test_exhaustive_cap(self):
        fld = first_irreducible(EXHAUSTIVE_MAX_N + 1)
        curve = Curve(fld.elem(1), fld.elem(1))
        p2 = random_point(curve, random.Random(1))
        circ, _ = synth_point_add(curve, p2)
        with pytest.raises(SynthesisError, match=f"n <= {EXHAUSTIVE_MAX_N}"):
            verify_point_add(circ, curve, p2, exhaustive=True)

    def test_formula_equality_on_arbitrary_states(self):
        # The circuit realizes the branch-free formula on every basis
        # state of (X1, Y1, Z1) -- even off-curve and Z1 = 0 inputs.
        n = 2
        fld = first_irreducible(n)
        curve = Curve(fld.elem(1), fld.elem(2))
        p2 = AffinePoint(fld.elem(3), fld.elem(2))
        circ, _ = synth_point_add(curve, p2, allow_off_curve=True)
        sim = Simulator(circ)
        layout = PointAddLayout(n)
        for s in range(1 << (3 * n)):
            x1, y1, z1 = s & 3, s >> n & 3, s >> 2 * n & 3
            out = sim.run(layout.pack_inputs(x1, y1, z1))
            from ecadd.ecoracle import LDPoint
            p1 = LDPoint(fld.elem(x1), fld.elem(y1), fld.elem(z1))
            expect = aldaoud_madd(curve, p1, p2)
            assert read_register(layout, out, "X3") == expect.X.value
            assert read_register(layout, out, "Y3") == expect.Y.value
            assert read_register(layout, out, "Z3") == expect.Z.value
            for name in ("C", "Bsq", "D", "Cp", "Z3p"):
                assert read_register(layout, out, name) == 0
            assert read_register(layout, out, "X1") == x1
            assert read_register(layout, out, "Y1") == y1
            assert read_register(layout, out, "Z1") == z1

    def test_sampled_verification(self):
        n = 5
        fld = first_irreducible(n)
        curve = Curve(fld.elem(1), fld.elem(1))
        rng = random.Random(7)
        p2 = random_point(curve, rng)
        circ, _ = synth_point_add(curve, p2)
        result = verify_point_add(circ, curve, p2, samples=300, seed=3)
        assert result.ok, result.failure
        assert result.cases == 300

    def test_fault_injection_detected(self):
        n = 3
        curve, p2 = curve_with_point(n)
        circ, _ = synth_point_add(curve, p2)
        gates = gate_tuples(circ.runs)
        for i, g in enumerate(gates):
            if g[0] == TOFFOLI:
                # Retarget one Toffoli onto a neighboring wire.
                t = g[3]
                gates[i] = (TOFFOLI, g[1], g[2], (t + 1) % circ.width
                            if (t + 1) % circ.width not in (g[1], g[2])
                            else (t + 2) % circ.width)
                break
        circ = circuit_of(circ.wires, gates)
        result = verify_point_add(circ, curve, p2, exhaustive=True)
        assert not result.ok
        assert result.failure

    def test_verification_rejects_wrong_width(self, f8):
        curve = Curve(f8.elem(1), f8.elem(1))
        p2 = AffinePoint(f8.elem(2), f8.elem(5))
        circ, _ = synth_point_add(curve, p2)
        other = Curve(first_irreducible(4).elem(1), first_irreducible(4).elem(1))
        with pytest.raises(SynthesisError):
            verify_point_add(circ, other, AffinePoint(other.field.elem(1),
                                                      other.field.elem(1)))


    @pytest.mark.parametrize("samples", [0, -3])
    def test_verification_rejects_sample_count_below_one(self, f8, samples):
        curve = Curve(f8.elem(1), f8.elem(1))
        p2 = AffinePoint(f8.elem(2), f8.elem(5))
        circ, _ = synth_point_add(curve, p2)
        with pytest.raises(SynthesisError):
            verify_point_add(circ, curve, p2, samples=samples)

    def test_verification_rejects_off_curve_point(self, f128):
        # No per-case check reads a6, so an off-curve P2 would pass them.
        curve = Curve(f128.elem(1), f128.elem(1))
        off = AffinePoint(f128.elem(2), f128.elem(5))
        circ, _ = synth_point_add(curve, off, allow_off_curve=True)
        with pytest.raises(SynthesisError, match="not on the curve"):
            verify_point_add(circ, curve, off, samples=200)


def mutations(circ, step):
    """Mutants of ``circ``, as (name, circuit) pairs.  For every
    ``step``-th gate: the gate dropped, a CNOT retargeted onto another
    wire, a Toffoli's target swapped with its first control."""
    gates = gate_tuples(circ.runs)
    for i in range(0, len(gates), step):
        g = gates[i]
        yield f"drop {i}", circuit_of(circ.wires, gates[:i] + gates[i + 1:])
        if g[0] == CNOT:
            t = (g[2] + 1) % circ.width
            bad = (CNOT, g[1], t if t != g[1] else (t + 1) % circ.width)
            yield f"retarget {i}", circuit_of(
                circ.wires, gates[:i] + [bad] + gates[i + 1:])
        elif g[0] == TOFFOLI:
            yield f"swap {i}", circuit_of(
                circ.wires, gates[:i] + [(TOFFOLI, g[3], g[2], g[1])]
                + gates[i + 1:])


def lane(i, m):
    """Bit k set iff bit i of k is set, for k < 2^m."""
    every = (1 << (1 << m)) - 1
    return every // ((1 << (2 << i)) - 1) * (((1 << (1 << i)) - 1) << (1 << i))


class TestLaneVerification:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_structure_on_every_basis_input(self, n):
        # Inputs restored and ancillas cleared on all 2^(3n) values of
        # (X1, Y1, Z1), on the curve or not: one lane per input.
        curve, p2 = curve_with_point(n)
        circ, _ = synth_point_add(curve, p2)
        layout = PointAddLayout(n)
        m = 3 * n
        ins = [lane(i, m) for i in range(m)]
        out = Simulator(circ).run_lanes(ins + [0] * (circ.width - m),
                                        (1 << (1 << m)) - 1)
        for name in ("X1", "Y1", "Z1"):
            o = layout.offset(name)
            assert out[o:o + n] == ins[o:o + n], name
        for name in ("C", "Bsq", "D", "Cp", "Z3p"):
            o = layout.offset(name)
            assert not any(out[o:o + n]), name

    def test_closed_form_lanes(self):
        for m in range(1, 7):
            for i in range(m):
                want = sum(1 << k for k in range(1 << m) if k >> i & 1)
                assert lane(i, m) == want

    @pytest.mark.parametrize("mode", ["exhaustive", "sampled"])
    def test_matches_case_by_case_reference(self, mode, monkeypatch):
        if mode == "exhaustive":
            curve, p2 = curve_with_point(3)
            kwargs, step = {"exhaustive": True}, 3
        else:
            fld = first_irreducible(5)
            curve = Curve(fld.elem(1), fld.elem(1))
            p2 = random_point(curve, random.Random(7))
            kwargs, step = {"samples": 40, "seed": 3}, 7
        circ, _ = synth_point_add(curve, p2)
        chunks = (1, 4, pas.VERIFY_CHUNK)
        past_first_chunk = set()
        for what, mutant in itertools.chain([("correct", circ)],
                                            mutations(circ, step)):
            want = ref_verify_point_add(mutant, curve, p2, **kwargs)
            for size in chunks:
                monkeypatch.setattr(pas, "VERIFY_CHUNK", size)
                got = verify_point_add(mutant, curve, p2, **kwargs)
                assert got == want, (what, size)
                if not got.ok and got.cases > size:
                    past_first_chunk.add(size)
        assert {1, 4} <= past_first_chunk

    def test_group_law_failure_named(self, monkeypatch):
        # Registers all as the formula says, but the formula's output is
        # not P1 + P2: only the per-case group-law check can see that.
        curve, p2 = curve_with_point(3)
        circ, _ = synth_point_add(curve, p2)
        monkeypatch.setattr(pas, "affine_add",
                            lambda *args: negate(affine_add(*args)))
        got = verify_point_add(circ, curve, p2, exhaustive=True)
        assert not got.ok and got.cases == 1
        assert got.failure.endswith(": output disagrees with the affine group law")

    def test_no_generic_case_is_an_error(self):
        # On this curve the only affine points are +-P2.
        fld = first_irreducible(2)
        curve = Curve(fld.elem(2), fld.elem(1))
        p2 = AffinePoint(fld.elem(0), fld.elem(1))
        assert len(all_affine_points(curve)) == 1
        circ, _ = synth_point_add(curve, p2)
        with pytest.raises(SynthesisError, match="no generic-case input"):
            verify_point_add(circ, curve, p2, exhaustive=True)


# The DSS curves B-163 and B-233 (FIPS 186-4): modulus, a6, base point.
DSS_CURVES = {
    163: ("1+x^3+x^6+x^7+x^163",
          0x20a601907b8c953ca1481eb10512f78744a3205fd,
          0x3f0eba16286a2d57ea0991168d4994637e8343e36,
          0xd51fbc6c71a0094fa2cdd545b11c5c0c797324f1),
    233: ("1+x^74+x^233",
          0x066647ede6c332c7f8c0923bb58213b333b20e9ce4281fe115f7d8f90ad,
          0x0fac9dfcbac8313bb2139f1bb755fef65bc391f8b36f8f8eb7371fd558b,
          0x1006a08a41903350678e58528bebf8a0beff867a7ca36716f7e01f81052),
}


class TestSampledInputs:
    # sha256 of the first 256 seeded inputs "X,Y,Z;" (hex), as drawn with
    # schoolbook field arithmetic (long division, quotient-polynomial
    # inverse) and, for odd n, the half-trace root of z^2 + z = c: the
    # draws must not depend on how the arithmetic or the solve is done.
    # Odd n takes the root of trace 0, even n the root with bit 0 clear;
    # the last two fields are the B-163 and B-233 curves.
    @pytest.mark.parametrize("n, digest", [
        (5, "47f69e5cce342a6ddd7476aea7742103026c9143ab440c43d9c6796caa3c3c47"),
        (7, "c5f70175e78625ae065f18ed9a3d00508a55e905dc4137380a5118068f0ebf39"),
        (17, "fe99dd8fcd391bb49907493d059e573c089e03617cf594626b5c972d3024633d"),
        (18, "73fe5a369f23fa17f845e4b6f550859509568e9e12711b21761576d5e8e1fab2"),
        (19, "be3f23a564b3a8e5b36c434aa78b6baab58ac8b897cf0f14e09974d743036ea0"),
        (163, "6584fa44cda5854e040f99fa304af5529864b808b6d8a87dbc4a65ddfc039110"),
        (233, "e2d8b33820da1a705b7bdbfd298b96946bec2cf684ce8cfce5f4ea84223f1111"),
    ])
    def test_first_draws_pinned(self, n, digest):
        if n in DSS_CURVES:
            poly, a6, x2, y2 = DSS_CURVES[n]
            fld = IrreduciblePoly.from_string(poly)
            curve = Curve(fld.elem(1), fld.elem(a6))
            p2 = AffinePoint(fld.elem(x2), fld.elem(y2))
        else:
            fld = first_irreducible(n)
            curve = Curve(fld.elem(1), fld.elem(1))
            p2 = random_point(curve, random.Random(n))
        h = hashlib.sha256()
        for p1 in pas._sampled_inputs(curve, p2, 256, 7):
            h.update(f"{p1.X.value:x},{p1.Y.value:x},{p1.Z.value:x};".encode())
        assert h.hexdigest() == digest


class TestStoreSize:
    def test_b163_circuit_holds_at_most_16_bytes_per_gate(self):
        # The memory that the B-163 circuit holds, traced as what its
        # deletion frees: its runs, their columns and its groups.
        poly, a6, x2, y2 = DSS_CURVES[163]
        fld = IrreduciblePoly.from_string(poly)
        curve = Curve(fld.elem(1), fld.elem(a6))
        p2 = AffinePoint(fld.elem(x2), fld.elem(y2))
        tracemalloc.start()
        try:
            circ, _ = synth_point_add(curve, p2)
            gates = circ.num_gates
            alive, _ = tracemalloc.get_traced_memory()
            del circ
            freed = alive - tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert gates > 200_000
        assert freed <= 16 * gates, freed / gates


class TestBounds:
    @pytest.mark.parametrize("n", [2, 3, 4, 7])
    def test_bounds_hold_and_are_reported(self, n):
        curve, p2 = curve_with_point(n)
        _, report = synth_point_add(curve, p2)
        b = report.bounds
        mult = multiplier_report(curve.field)
        assert b["t_count"]["achieved"] == b["t_count"]["bound"] \
            == 5 * mult.decomposed.t_count == 35 * n * n
        assert b["width"]["achieved"] == 11 * n
        for name in ("total_gates", "t_depth", "depth"):
            assert b[name]["achieved"] <= b[name]["bound"]

    def test_violation_raises(self, f8):
        curve = Curve(f8.elem(1), f8.elem(1))
        _, report = synth_point_add(curve, AffinePoint(f8.elem(2), f8.elem(5)))
        mult = multiplier_report(f8)
        with pytest.raises(BoundViolation):
            check_bounds(report, f8.n + 1, mult, 0, 0)  # wrong width target

    def test_multiplier_report_figures(self, f8):
        r = multiplier_report(f8)
        n = f8.n
        assert r.toffoli_count == n * n
        assert r.decomposed.t_count == 7 * n * n
        assert r.width == 3 * n


class TestLayout:
    def test_register_order_and_offsets(self):
        lay = PointAddLayout(4)
        assert REGISTER_ORDER[0] == "X1" and REGISTER_ORDER[-1] == "Y3"
        assert lay.offset("X1") == 0
        assert lay.offset("Y3") == 40
        s = lay.pack_inputs(0b1010, 0b0001, 0b1111)
        assert read_register(lay, s, "X1") == 0b1010
        assert read_register(lay, s, "Y1") == 0b0001
        assert read_register(lay, s, "Z1") == 0b1111
        assert read_register(lay, s, "C") == 0

"""The full point-addition circuit: structure, semantics, bounds."""

import random

import pytest

from conftest import first_irreducible, ref_exhaustive_inputs
from ecadd.circuit_ir import CNOT, TOFFOLI, metrics
from ecadd.ecoracle import (
    AffinePoint,
    Curve,
    aldaoud_madd,
    all_affine_points,
    random_point,
)
from ecadd.gf2field import IrreduciblePoly
from ecadd.pointaddsynth import (
    REGISTER_ORDER,
    EXHAUSTIVE_MAX_N,
    BoundViolation,
    SynthesisError,
    SynthesisOptions,
    check_bounds,
    exhaustive_inputs,
    layout_for,
    multiplier_report,
    synth_point_add,
    verify_point_add,
)
from ecadd.qcformat import circuit_from_qc, write_qc
from ecadd.revsim import Simulator

TOY = SynthesisOptions(allow_off_curve=True)


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
                            SynthesisOptions(allow_off_curve=True))

    def test_off_curve_rejected_without_flag(self, f8):
        curve = Curve(f8.elem(1), f8.elem(1))
        off = AffinePoint(f8.elem(1), f8.elem(1))
        with pytest.raises(SynthesisError):
            synth_point_add(curve, off)
        synth_point_add(curve, off, TOY)  # flag accepts it

    def test_unknown_multiplier_variant(self, f8):
        curve = Curve(f8.elem(1), f8.elem(1))
        with pytest.raises(SynthesisError):
            synth_point_add(curve, AffinePoint(f8.elem(2), f8.elem(5)),
                            SynthesisOptions(multiplier_variant="horner"))


class TestToyStructure:
    def test_resource_quadruple(self):
        curve, p2 = toy_job()
        _, report = synth_point_add(curve, p2, TOY)
        assert report.width == 11
        assert report.toffoli_count == 5
        assert report.decomposed.t_count == 35
        assert report.decomposed.t_depth == 16

    def test_block_labels_in_order(self):
        curve, p2 = toy_job()
        circ, _ = synth_point_add(curve, p2, TOY)
        labels = [g.label for g in circ.top_level_groups()]
        # Multiplier blocks and the linear blocks around them.
        assert labels == ["SM", "X", "M", "S", "S", "S", "a2", "X", "M",
                          "M", "xyZ", "M", "IM", "IX", "Ia2", "IS", "SR",
                          "IX", "ISM"]

    def test_decompose_option_expands_toffolis(self):
        curve, p2 = toy_job()
        circ, report = synth_point_add(curve, p2, TOY)
        m = metrics(circuit_from_qc(write_qc(circ, clifford_t=True)))
        assert m.toffoli_count == 0
        assert m.t_count == 35
        # The report describes the Toffoli-level circuit.
        assert report.toffoli_count == 5


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
        circ, _ = synth_point_add(curve, p2, TOY)
        sim = Simulator(circ)
        layout = layout_for(n)
        for s in range(1 << (3 * n)):
            x1, y1, z1 = s & 3, s >> n & 3, s >> 2 * n & 3
            out = sim.run(layout.pack_inputs(x1, y1, z1))
            from ecadd.ecoracle import LDPoint
            expect = aldaoud_madd(
                curve, LDPoint(fld.elem(x1), fld.elem(y1), fld.elem(z1)),
                p2, checked=False)
            assert layout.extract(out, "X3") == expect.X.value
            assert layout.extract(out, "Y3") == expect.Y.value
            assert layout.extract(out, "Z3") == expect.Z.value
            for name in ("C", "Bsq", "D", "Cp", "Z3p"):
                assert layout.extract(out, name) == 0
            assert layout.extract(out, "X1") == x1
            assert layout.extract(out, "Y1") == y1
            assert layout.extract(out, "Z1") == z1

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
        gates = circ.gate_tuples()
        for i, g in enumerate(gates):
            if g[0] == TOFFOLI:
                # Retarget one Toffoli onto a neighboring wire.
                t = g[3]
                gates[i] = (TOFFOLI, g[1], g[2], (t + 1) % circ.width
                            if (t + 1) % circ.width not in (g[1], g[2])
                            else (t + 2) % circ.width)
                break
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
        lay = layout_for(4)
        assert REGISTER_ORDER[0] == "X1" and REGISTER_ORDER[-1] == "Y3"
        assert lay.offset("X1") == 0
        assert lay.offset("Y3") == 40
        s = lay.pack_inputs(0b1010, 0b0001, 0b1111)
        assert lay.extract(s, "X1") == 0b1010
        assert lay.extract(s, "Y1") == 0b0001
        assert lay.extract(s, "Z1") == 0b1111
        assert lay.extract(s, "C") == 0

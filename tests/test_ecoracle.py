"""Classical curve oracle: group law, coordinates, and the mixed formula."""

import itertools
import random

import pytest

from conftest import first_irreducible, ref_all_affine_points, scalar_mul
from ecadd.ecoracle import (
    AffinePoint,
    Curve,
    LDPoint,
    PointError,
    affine_add,
    affine_equal,
    affine_to_ld,
    aldaoud_madd,
    all_affine_points,
    ld_to_affine,
    negate,
    on_curve_affine,
    on_curve_ld,
    random_point,
)


def small_curves(n, limit=4):
    """A few curves over F2^n with at least four affine points."""
    fld = first_irreducible(n)
    out = []
    for a2v in range(1 << n):
        for a6v in range(1, 1 << n):
            curve = Curve(fld.elem(a2v), fld.elem(a6v))
            if len(all_affine_points(curve)) >= 4:
                out.append(curve)
                if len(out) == limit:
                    return out
    return out


class TestValidation:
    def test_a6_nonzero(self, f8):
        with pytest.raises(PointError):
            Curve(f8.elem(1), f8.elem(0))

    def test_coefficients_same_field(self, f8, f16):
        with pytest.raises(PointError):
            Curve(f8.elem(1), f16.elem(1))

    def test_affine_point_both_or_neither(self, f8):
        with pytest.raises(PointError):
            AffinePoint(f8.elem(1), None)
        assert AffinePoint.infinity().is_infinity

    def test_on_curve(self, f8):
        curve = Curve(f8.elem(1), f8.elem(1))
        assert on_curve_affine(curve, AffinePoint.infinity())
        assert on_curve_affine(curve, AffinePoint(f8.elem(2), f8.elem(5)))
        assert not on_curve_affine(curve, AffinePoint(f8.elem(1), f8.elem(1)))


class TestAffineGroupLaw:
    @pytest.mark.parametrize("n", [2, 3])
    def test_group_axioms_exhaustive(self, n):
        for curve in small_curves(n):
            pts = all_affine_points(curve) + [AffinePoint.infinity()]
            # Closure + commutativity over all pairs.
            for p, q in itertools.product(pts, pts):
                s = affine_add(curve, p, q)
                assert on_curve_affine(curve, s)
                assert affine_equal(s, affine_add(curve, q, p))
            # Identity and inverses.
            for p in pts:
                assert affine_equal(affine_add(curve, p, AffinePoint.infinity()), p)
                assert affine_add(curve, p, negate(p)).is_infinity
                assert on_curve_affine(curve, negate(p))
            # Associativity over all triples (small point counts).
            for p, q, r in itertools.product(pts, pts, pts):
                lhs = affine_add(curve, affine_add(curve, p, q), r)
                rhs = affine_add(curve, p, affine_add(curve, q, r))
                assert affine_equal(lhs, rhs)

    def test_associativity_sampled_n4(self):
        rng = random.Random(4)
        for curve in small_curves(4, limit=2):
            pts = all_affine_points(curve) + [AffinePoint.infinity()]
            for _ in range(300):
                p, q, r = (rng.choice(pts) for _ in range(3))
                lhs = affine_add(curve, affine_add(curve, p, q), r)
                rhs = affine_add(curve, p, affine_add(curve, q, r))
                assert affine_equal(lhs, rhs)

    def test_scalar_mul_consistency(self):
        # Double-and-add takes affine_add's P + P branch at every step;
        # repeated addition adds P to kP, which takes it only at k = 1.
        curve = small_curves(3)[0]
        p = all_affine_points(curve)[0]
        acc = AffinePoint.infinity()
        for k in range(12):
            assert affine_equal(scalar_mul(curve, k, p), acc)
            acc = affine_add(curve, acc, p)
        assert affine_equal(scalar_mul(curve, -1, p), negate(p))


class TestCoordinates:
    def test_ld_round_trip(self, rng):
        fld = first_irreducible(5)
        curve = Curve(fld.elem(1), fld.elem(1))
        for _ in range(100):
            p = random_point(curve, rng)
            z = fld.elem(rng.getrandbits(5) | 1)
            ld = affine_to_ld(p, z)
            assert on_curve_ld(curve, ld)
            assert affine_equal(ld_to_affine(ld), p)
            assert affine_equal(ld_to_affine(affine_to_ld(p, fld.one())), p)

    def test_ld_equal_distinguishes(self, f8):
        # Equality of LD points is equality of their affine images.
        one = f8.one()
        x = f8.elem(2)
        p = ld_to_affine(LDPoint(one, one, one))
        q = ld_to_affine(LDPoint(x, x * x, x))  # same class, scaled by z = x
        r = ld_to_affine(LDPoint(x, one, one))
        assert affine_equal(p, q)
        assert not affine_equal(p, r)
        o = LDPoint(one, one, f8.elem(0))
        assert o.is_infinity
        assert affine_equal(ld_to_affine(o), AffinePoint.infinity())
        assert not affine_equal(ld_to_affine(o), p)

    def test_infinity_handling(self, f8):
        with pytest.raises(PointError):
            affine_to_ld(AffinePoint.infinity(), f8.one())
        assert ld_to_affine(LDPoint(f8.one(), f8.one(), f8.elem(0))).is_infinity
        with pytest.raises(PointError):
            affine_to_ld(AffinePoint(f8.elem(2), f8.elem(5)), f8.elem(0))

    def test_random_point_on_curve(self, rng):
        for n in (3, 5, 8):
            fld = first_irreducible(n)
            for _ in range(10):
                a2 = fld.elem(rng.getrandbits(n))
                a6 = fld.elem(rng.getrandbits(n) | 1)
                curve = Curve(a2, a6)
                for _ in range(20):
                    p = random_point(curve, rng)
                    assert not p.is_infinity
                    assert on_curve_affine(curve, p)


class TestMixedAddition:
    @pytest.mark.parametrize("n", [2, 3])
    def test_matches_affine_law_exhaustive(self, n):
        fld = first_irreducible(n)
        for curve in small_curves(n):
            pts = all_affine_points(curve)
            for p1, p2 in itertools.product(pts, pts):
                if affine_equal(p1, p2) or affine_equal(p1, negate(p2)):
                    continue
                for zv in range(1, 1 << n):
                    ld1 = affine_to_ld(p1, fld.elem(zv))
                    got = aldaoud_madd(curve, ld1, p2)
                    assert on_curve_ld(curve, got)
                    want = affine_add(curve, p1, p2)
                    assert affine_equal(ld_to_affine(got), want)

    def test_unchecked_is_total(self, f8):
        # The formula is evaluated on any input, P1 = O included.
        curve = Curve(f8.elem(1), f8.elem(1))
        p = AffinePoint(f8.elem(2), f8.elem(5))
        out = aldaoud_madd(curve, LDPoint(f8.one(), f8.one(), f8.elem(0)), p)
        assert out.is_infinity  # Z3 = (X1 + x2*Z1)^2 * Z1^2 = 0


class TestEnumeration:
    def test_all_affine_points_cap(self):
        fld = first_irreducible(9)
        with pytest.raises(ValueError):
            all_affine_points(Curve(fld.elem(1), fld.elem(1)))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_points_match_scan_every_curve(self, n):
        fld = first_irreducible(n)
        for a2v in range(1 << n):
            for a6v in range(1, 1 << n):
                curve = Curve(fld.elem(a2v), fld.elem(a6v))
                assert all_affine_points(curve) == ref_all_affine_points(curve)

    @pytest.mark.parametrize("n", [5, 6, 7, 8])
    def test_points_match_scan_seeded_curves(self, n):
        fld = first_irreducible(n)
        rng = random.Random(n)
        for _ in range(2):
            curve = Curve(fld.elem(rng.getrandbits(n)),
                          fld.elem(rng.randrange(1, 1 << n)))
            assert all_affine_points(curve) == ref_all_affine_points(curve)

    def test_point_count_hasse_bound(self):
        # |#E - (q + 1)| <= 2 sqrt(q) including the point at infinity.
        for n in (2, 3, 4):
            q = 1 << n
            for curve in small_curves(n):
                count = len(all_affine_points(curve)) + 1
                assert abs(count - (q + 1)) <= 2 * (q ** 0.5) + 1e-9

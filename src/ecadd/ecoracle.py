"""Classical oracle for ordinary binary elliptic curves.

Curves are short Weierstrass curves over F2^n,

    E: y^2 + x y = x^3 + a2 x^2 + a6,   a6 != 0  (non-supersingular),

with affine points plus the point at infinity O, and Lopez-Dahab (LD)
projective coordinates (X, Y, Z), Z != 0, representing the affine point
(X/Z, Y/Z^2).

Two independent addition routes are provided:

* ``affine_add``: the complete branching affine group law (handles O,
  inverses, and doubling);
* ``aldaoud_madd``: the branch-free mixed-coordinate formula, which is
  exactly what the synthesized circuit computes.  It is evaluated on any
  input, and gives P1 + P2 in the generic case P1 != O and P1 != +-P2
  with P2 affine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .gf2field import FieldElem, IrreduciblePoly, solve_quadratic


# The largest n for which points are listed (``all_affine_points``) and
# verification is exhaustive.  On y^2 + xy = x^3 + x^2 + 1 with
# P2 = random_point(curve, Random(1)), ``verify_point_add`` checks 17,653
# cases over 1+x+x^7 in 1.2-1.6 s and 72,675 over 1+x^2+x^3+x^4+x^8 in
# 5.6-7.6 s (2 vCPUs, three runs each), most of it in the oracle.
EXHAUSTIVE_MAX_N = 8


class PointError(ValueError):
    """Invalid point or curve parameter."""


@dataclass(frozen=True)
class Curve:
    a2: FieldElem
    a6: FieldElem

    def __post_init__(self):
        if self.a2.field.bits != self.a6.field.bits:
            raise PointError("curve coefficients from different fields")
        if self.a6.value == 0:
            raise PointError("a6 must be nonzero (supersingular curves excluded)")

    @property
    def field(self) -> IrreduciblePoly:
        return self.a2.field


@dataclass(frozen=True)
class AffinePoint:
    """An affine point, or O when both coordinates are None."""

    x: Optional[FieldElem]
    y: Optional[FieldElem]

    def __post_init__(self):
        if (self.x is None) != (self.y is None):
            raise PointError("both coordinates must be set, or neither")

    @classmethod
    def infinity(cls) -> "AffinePoint":
        return cls(None, None)

    @property
    def is_infinity(self) -> bool:
        return self.x is None


@dataclass(frozen=True)
class LDPoint:
    """Lopez-Dahab coordinates (X, Y, Z); Z = 0 encodes O."""

    X: FieldElem
    Y: FieldElem
    Z: FieldElem

    @property
    def is_infinity(self) -> bool:
        return self.Z.value == 0


def on_curve_affine(curve: Curve, p: AffinePoint) -> bool:
    if p.is_infinity:
        return True
    x, y = p.x, p.y
    lhs = y.square() + x * y
    rhs = x.square() * x + curve.a2 * x.square() + curve.a6
    return lhs.value == rhs.value


def on_curve_ld(curve: Curve, p: LDPoint) -> bool:
    """Projective curve membership: Y^2 + XYZ = X^3 Z + a2 X^2 Z^2 + a6 Z^4."""
    if p.is_infinity:
        return True
    X, Y, Z = p.X, p.Y, p.Z
    lhs = Y.square() + X * Y * Z
    rhs = X.square() * X * Z + curve.a2 * X.square() * Z.square() \
        + curve.a6 * Z.square().square()
    return lhs.value == rhs.value


def negate(p: AffinePoint) -> AffinePoint:
    if p.is_infinity:
        return p
    return AffinePoint(p.x, p.x + p.y)


def affine_equal(p: AffinePoint, q: AffinePoint) -> bool:
    if p.is_infinity or q.is_infinity:
        return p.is_infinity and q.is_infinity
    return p.x.value == q.x.value and p.y.value == q.y.value


def affine_add(curve: Curve, p1: AffinePoint, p2: AffinePoint) -> AffinePoint:
    """Complete affine group law (all branches)."""
    if p1.is_infinity:
        return p2
    if p2.is_infinity:
        return p1
    x1, y1 = p1.x, p1.y
    x2, y2 = p2.x, p2.y
    if x1.value == x2.value:
        if (y1 + y2).value == x2.value:
            return AffinePoint.infinity()  # p1 = -p2 (incl. 2-torsion doubling)
        # Doubling.
        m = x2 + y2 / x2
        x3 = m.square() + m + curve.a2
        y3 = x2.square() + (m + curve.field.one()) * x3
        return AffinePoint(x3, y3)
    m = (y1 + y2) / (x1 + x2)
    x3 = m.square() + m + x1 + x2 + curve.a2
    y3 = (x2 + x3) * m + x3 + y2
    return AffinePoint(x3, y3)


def affine_to_ld(p: AffinePoint, z: FieldElem) -> LDPoint:
    """The LD representative (x z, y z^2, z) of an affine point, for a
    nonzero scale z."""
    if p.is_infinity:
        raise PointError("O has no finite LD representative here")
    if z.value == 0:
        raise PointError("representative scale z must be nonzero")
    return LDPoint(p.x * z, p.y * z.square(), z)


def ld_to_affine(p: LDPoint) -> AffinePoint:
    if p.is_infinity:
        return AffinePoint.infinity()
    zi = p.Z.inverse()
    return AffinePoint(p.X * zi, p.Y * zi.square())


def aldaoud_madd(curve: Curve, p1: LDPoint, p2: AffinePoint) -> LDPoint:
    """Mixed-coordinate addition P3 = P1 + P2 (P1 in LD, P2 affine).

    Branch-free generic-case formula:

        A = Y1 + y2 Z1^2        B = X1 + x2 Z1       C = B Z1
        Z3 = C^2                D = x2 Z3
        X3 = A^2 + C (A + B^2 + a2 C)
        Y3 = (D + X3)(A C + Z3) + (y2 + x2) Z3^2

    Outside the generic case (P1, P2 != O and P1 != +-P2) the result is
    not P1 + P2; the inputs are the caller's to choose.
    """
    X1, Y1, Z1 = p1.X, p1.Y, p1.Z
    x2, y2 = p2.x, p2.y
    a2 = curve.a2
    A = Y1 + y2 * Z1.square()
    B = X1 + x2 * Z1
    C = B * Z1
    Z3 = C.square()
    D = x2 * Z3
    X3 = A.square() + C * (A + B.square() + a2 * C)
    Y3 = (D + X3) * (A * C + Z3) + (y2 + x2) * Z3.square()
    return LDPoint(X3, Y3, Z3)


def _y_at(curve: Curve, x: FieldElem) -> Optional[FieldElem]:
    """A y with (x, y) on the curve, or None when there is none; the
    points at x are then (x, y) and (x, y + x), one point when x = 0.

    x = 0 gives y = sqrt(a6).  For x != 0, y = x z turns the curve
    equation into z^2 + z = x + a2 + a6 / x^2, which has two roots z and
    z + 1 or none: one quadratic solve."""
    if x.value == 0:
        return curve.a6.sqrt()
    z = solve_quadratic(x + curve.a2 + curve.a6 / x.square())
    return None if z is None else x * z


def random_point(curve: Curve, rng) -> AffinePoint:
    """A uniformly random affine point (never O)."""
    field = curve.field
    n = field.n
    while True:
        x = field.elem(rng.getrandbits(n))
        y = _y_at(curve, x)
        if y is None:
            continue
        if x.value and rng.getrandbits(1):
            y = y + x
        return AffinePoint(x, y)


def all_affine_points(curve: Curve) -> list[AffinePoint]:
    """Every affine point, in ascending (x, y) order (small fields only)."""
    field = curve.field
    if field.n > EXHAUSTIVE_MAX_N:
        raise ValueError("exhaustive point enumeration limited to "
                         f"n <= {EXHAUSTIVE_MAX_N}")
    out = []
    for xv in range(1 << field.n):
        x = field.elem(xv)
        y = _y_at(curve, x)
        if y is not None:
            ys = sorted({y.value, (y + x).value})
            out += [AffinePoint(x, field.elem(v)) for v in ys]
    return out

"""Arithmetic in F2[x] and in binary fields F2^n = F2[x]/(p).

Polynomials over GF(2) are bit vectors packed into Python integers,
little-endian by exponent: bit i of the integer is the coefficient of x^i.
The zero polynomial has degree -1 (sentinel).

Field elements are fixed-width residues of degree < n modulo an
irreducible polynomial p of degree n.  Two text encodings are accepted
everywhere an element or polynomial is read:

* polynomial text: terms "1", "x", "x^k" joined by "+", any order,
  e.g. "1+x^74+x^233";
* hex: "0x..." where bit i of the integer is the coefficient a_i
  (least-significant bit = a_0).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional


class ModulusMismatch(ValueError):
    """Operands belong to different fields."""


class NotInvertible(ZeroDivisionError):
    """Inverse of zero (or of a non-unit) requested."""


class UnsupportedField(ValueError):
    """Operation not available for this field configuration."""


# ----------------------------------------------------------------------
# Raw polynomial helpers on packed integers
# ----------------------------------------------------------------------

def poly_degree(a: int) -> int:
    """Degree of a packed polynomial; -1 for the zero polynomial."""
    return a.bit_length() - 1


def poly_mul(a: int, b: int) -> int:
    """Carry-less product in F2[x]."""
    if a.bit_count() > b.bit_count():
        a, b = b, a
    r = 0
    while a:
        low = a & -a
        r ^= b << (low.bit_length() - 1)
        a ^= low
    return r


def poly_divmod(a: int, b: int) -> tuple[int, int]:
    if b == 0:
        raise ZeroDivisionError("division by the zero polynomial")
    db = poly_degree(b)
    q = 0
    while True:
        da = poly_degree(a)
        if da < db:
            return q, a
        shift = da - db
        q |= 1 << shift
        a ^= b << shift


def poly_mod(a: int, m: int) -> int:
    if m == 0:
        raise ZeroDivisionError("reduction modulo the zero polynomial")
    dm = poly_degree(m)
    while True:
        da = poly_degree(a)
        if da < dm:
            return a
        a ^= m << (da - dm)


def poly_gcd(a: int, b: int) -> int:
    while b:
        a, b = b, poly_mod(a, b)
    return a


def poly_inv_mod(a: int, m: int) -> int:
    """Inverse of a modulo m via the extended Euclidean algorithm."""
    if poly_mod(a, m) == 0:
        raise NotInvertible("polynomial has no inverse modulo the given modulus")
    r0, r1 = m, poly_mod(a, m)
    s0, s1 = 0, 1
    while r1:
        q, r = poly_divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 ^ poly_mul(q, s1)
    if r0 != 1:
        raise NotInvertible("operand shares a factor with the modulus")
    return poly_mod(s0, m)


_TERM_RE = re.compile(r"^(1|x|x\^(\d+))$")


def parse_poly_text(text: str) -> int:
    """Parse polynomial text like "1+x^74+x^233" into a packed integer."""
    bits = 0
    s = text.replace(" ", "")
    if not s:
        raise ValueError("empty polynomial text")
    for term in s.split("+"):
        m = _TERM_RE.match(term)
        if not m:
            raise ValueError(f"bad polynomial term: {term!r}")
        if term == "1":
            e = 0
        elif term == "x":
            e = 1
        else:
            e = int(m.group(2))
        if bits >> e & 1:
            raise ValueError(f"repeated exponent {e} in {text!r}")
        bits |= 1 << e
    return bits


def parse_element_text(text: str) -> int:
    """Parse either hex ("0x...") or polynomial text into a packed integer."""
    s = text.strip()
    if s.lower().startswith("0x"):
        return int(s, 16)
    if s == "0":
        return 0
    return parse_poly_text(s)


def poly_to_text(bits: int) -> str:
    if bits == 0:
        return "0"
    terms = []
    for e in support_of(bits):
        terms.append("1" if e == 0 else ("x" if e == 1 else f"x^{e}"))
    return "+".join(terms)


def support_of(bits: int) -> tuple[int, ...]:
    """Ascending list of exponents with nonzero coefficient."""
    out = []
    while bits:
        low = bits & -bits
        out.append(low.bit_length() - 1)
        bits ^= low
    return tuple(out)


def _prime_factors(n: int) -> tuple[int, ...]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return tuple(out)


def is_irreducible(q) -> bool:
    """Rabin irreducibility test over GF(2).

    Checks x^(2^n) == x (mod q) and gcd(x^(2^(n/r)) - x, q) = 1 for every
    prime r dividing n.
    """
    bits = q.bits if isinstance(q, Gf2Poly) else int(q)
    if bits == 0:
        raise ValueError("irreducibility of the zero polynomial is undefined")
    n = poly_degree(bits)
    if n == 0:
        return False
    if n == 1:
        return True
    checkpoints = {n // r for r in _prime_factors(n)}
    t = poly_mod(2, bits)  # x
    for k in range(1, n + 1):
        t = poly_mod(poly_mul(t, t), bits)
        if k in checkpoints:
            if poly_gcd(t ^ 2, bits) != 1:
                return False
    return t == poly_mod(2, bits)


# ----------------------------------------------------------------------
# Wrapper types
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Gf2Poly:
    """A polynomial over GF(2), packed into an integer."""

    bits: int

    def __post_init__(self):
        if self.bits < 0:
            raise ValueError("negative bit pattern")

    @classmethod
    def from_string(cls, text: str) -> "Gf2Poly":
        return cls(parse_poly_text(text))

    @classmethod
    def from_support(cls, exponents) -> "Gf2Poly":
        bits = 0
        for e in exponents:
            bits ^= 1 << e
        return cls(bits)

    @property
    def degree(self) -> int:
        return poly_degree(self.bits)

    @property
    def support(self) -> tuple[int, ...]:
        return support_of(self.bits)

    @property
    def coeffs(self) -> tuple[int, ...]:
        return tuple(self.bits >> i & 1 for i in range(self.degree + 1))

    def __add__(self, other: "Gf2Poly") -> "Gf2Poly":
        return Gf2Poly(self.bits ^ other.bits)

    def __mul__(self, other: "Gf2Poly") -> "Gf2Poly":
        return Gf2Poly(poly_mul(self.bits, other.bits))

    def __mod__(self, other: "Gf2Poly") -> "Gf2Poly":
        return Gf2Poly(poly_mod(self.bits, other.bits))

    def __str__(self) -> str:
        return poly_to_text(self.bits)


@dataclass(frozen=True)
class IrreduciblePoly:
    """An irreducible polynomial p of degree n >= 1, defining F2^n.

    The constant term must be 1 (true of every irreducible polynomial of
    degree >= 1 other than x itself, which generates no field extension
    worth the name here).
    """

    poly: Gf2Poly

    def __post_init__(self):
        bits = self.poly.bits
        if bits == 0 or poly_degree(bits) < 1:
            raise ValueError("modulus must have degree >= 1")
        if not bits & 1:
            raise ValueError("modulus must have constant term 1")
        if not is_irreducible(bits):
            raise ValueError(f"polynomial {self.poly} is reducible")

    @classmethod
    def from_string(cls, text: str) -> "IrreduciblePoly":
        return cls(Gf2Poly.from_string(text))

    @property
    def n(self) -> int:
        return self.poly.degree

    @property
    def support(self) -> tuple[int, ...]:
        return self.poly.support

    @property
    def weight(self) -> int:
        return self.poly.bits.bit_count()

    def elem(self, value) -> "FieldElem":
        """Wrap an integer, hex string, or polynomial text as a field element."""
        if isinstance(value, str):
            value = parse_element_text(value)
        return FieldElem(poly_mod(int(value), self.poly.bits), self)

    def zero(self) -> "FieldElem":
        return FieldElem(0, self)

    def one(self) -> "FieldElem":
        return FieldElem(1, self)

    def x(self) -> "FieldElem":
        return self.elem(2)

    def __str__(self) -> str:
        return str(self.poly)


@dataclass(frozen=True)
class FieldElem:
    """An element of F2^n, stored as a width-n residue."""

    value: int
    field: IrreduciblePoly

    def __post_init__(self):
        if not 0 <= self.value < (1 << self.field.n):
            raise ValueError("element out of range for the field")

    def _check(self, other: "FieldElem"):
        if self.field.poly.bits != other.field.poly.bits:
            raise ModulusMismatch("operands live in different fields")

    def __add__(self, other: "FieldElem") -> "FieldElem":
        self._check(other)
        return FieldElem(self.value ^ other.value, self.field)

    __sub__ = __add__

    def __mul__(self, other: "FieldElem") -> "FieldElem":
        self._check(other)
        p = self.field.poly.bits
        return FieldElem(poly_mod(poly_mul(self.value, other.value), p), self.field)

    def __truediv__(self, other: "FieldElem") -> "FieldElem":
        return self * other.inverse()

    def __bool__(self) -> bool:
        return self.value != 0

    def square(self) -> "FieldElem":
        p = self.field.poly.bits
        return FieldElem(poly_mod(poly_mul(self.value, self.value), p), self.field)

    def sqrt(self) -> "FieldElem":
        """Unique square root, via (n-1)-fold squaring (a^(2^(n-1)))."""
        r = self
        for _ in range(self.field.n - 1):
            r = r.square()
        return r

    def inverse(self) -> "FieldElem":
        if self.value == 0:
            raise NotInvertible("inverse of zero")
        return FieldElem(poly_inv_mod(self.value, self.field.poly.bits), self.field)

    def trace(self) -> int:
        """Absolute trace, as an int in {0, 1}."""
        t = self
        s = self.value
        for _ in range(self.field.n - 1):
            t = t.square()
            s ^= t.value
        if s not in (0, 1):
            raise AssertionError("trace left the prime field")
        return s

    def half_trace(self) -> "FieldElem":
        """Half-trace, defined for odd n; solves z^2 + z = a when trace(a) = 0."""
        n = self.field.n
        if n % 2 == 0:
            raise UnsupportedField("half-trace requires odd extension degree")
        h = self
        t = self
        for _ in range((n - 1) // 2):
            t = t.square().square()
            h = h + t
        return h

    def to_hex(self) -> str:
        return hex(self.value)

    def __str__(self) -> str:
        return poly_to_text(self.value)


@lru_cache(maxsize=16)
def _quadratic_solver(modulus: int) -> tuple[tuple[int, int, int], ...]:
    """Gauss-Jordan form of z -> z^2 + z on the span of x, ..., x^(n-1).

    The map is GF(2)-linear with kernel {0, 1}, so it is injective on
    that span and the span's image is the whole image.  Each returned
    row is (pivot bit, image, preimage): no other row's image has the
    pivot bit set, and preimage^2 + preimage = image.
    """
    n = poly_degree(modulus)
    rows: list[list[int]] = []
    for i in range(1, n):
        image = poly_mod(1 << (2 * i), modulus) ^ (1 << i)
        pre = 1 << i
        for pivot, r_image, r_pre in rows:
            if image >> pivot & 1:
                image ^= r_image
                pre ^= r_pre
        pivot = image.bit_length() - 1
        for row in rows:
            if row[1] >> pivot & 1:
                row[1] ^= image
                row[2] ^= pre
        rows.append([pivot, image, pre])
    return tuple(map(tuple, rows))


def solve_quadratic(c: FieldElem) -> Optional[FieldElem]:
    """A solution z of z^2 + z = c, or None when none exists.

    Odd n uses the half-trace.  Even n solves the linear system of
    z -> z^2 + z by a Gauss-Jordan elimination cached per modulus and
    returns the root with bit 0 clear (the other root is z + 1).
    """
    field = c.field
    if c.value == 0:
        return field.zero()
    n = field.n
    if n % 2 == 1:
        z = c.half_trace()
        if (z.square() + z).value == c.value:
            return z
        return None
    rest = c.value
    z = 0
    for pivot, image, pre in _quadratic_solver(field.poly.bits):
        if rest >> pivot & 1:
            rest ^= image
            z ^= pre
    return FieldElem(z, field) if rest == 0 else None

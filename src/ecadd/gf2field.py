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

A field is one object per modulus: ``IrreduciblePoly`` holds p as a
packed integer with its degree, mask and low terms, computed once when
the modulus is parsed, and carries the arithmetic that every FieldElem
operation goes through.  It gives the same residues, bit for bit, as
schoolbook arithmetic with long division, at a fraction of the cost
(Hankerson-Menezes-Vanstone, *Guide to Elliptic Curve Cryptography*,
2004, section 2.3):

* reduction folds the high part a >> n back through p's low terms, since
  x^n = sum of x^e over them: one shift-XOR per term and pass, and two
  or three passes for a product of sparse DSS-style moduli;
* squaring spreads the bits, since (sum a_i x^i)^2 = sum a_i x^(2i) over
  GF(2): reading a's binary digits in base 4 gives a^2, then one fold;
* inversion is the shift-only extended Euclid (HMV Algorithm 2.48),
  with no quotient polynomials and one final reduction.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from typing import Optional


class ModulusMismatch(ValueError):
    """Operands belong to different fields."""


class NotInvertible(ZeroDivisionError):
    """Inverse of zero (or of a non-unit) requested."""


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


def poly_gcd(a: int, b: int) -> int:
    """gcd(a, b) in F2[x]: cancels the leading term of the longer operand
    with a shifted copy of the other until one of them is zero."""
    da, db = a.bit_length(), b.bit_length()
    while b:
        j = da - db
        if j < 0:
            a, b, da, db, j = b, a, db, da, -j
        a ^= b << j
        da = a.bit_length()
    return a


class Kernel:
    """Arithmetic on residues modulo one polynomial p of degree n >= 1.

    Immutable; p (``bits``) need not be irreducible except for
    ``inverse``.  Operands are packed integers of degree < n, except
    that ``reduce`` takes any a >= 0.
    """

    __slots__ = ("bits", "n", "mask", "low")

    def __init__(self, bits: int):
        n = poly_degree(bits)
        mask = (1 << n) - 1
        init = object.__setattr__
        init(self, "bits", bits)
        init(self, "n", n)
        init(self, "mask", mask)
        # x^n = sum of x^e over these exponents, modulo p.
        init(self, "low", support_of(bits & mask))

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot set {name!r}: {type(self).__name__} "
                             "is immutable")

    __delattr__ = __setattr__

    def reduce(self, a: int) -> int:
        """a mod p, by folding a >> n back through p's low terms."""
        n, mask, low = self.n, self.mask, self.low
        while hi := a >> n:
            a &= mask
            for e in low:
                a ^= hi << e
        return a

    def mul(self, a: int, b: int) -> int:
        return self.reduce(poly_mul(a, b))

    def square(self, a: int) -> int:
        # a^2 moves bit i of a to bit 2i: a's binary digits read in base 4.
        return self.reduce(int(bin(a)[2:], 4))

    def inverse(self, a: int) -> int:
        """a^-1 mod p for a nonzero residue a, p irreducible.

        Keeps a*g1 = u and a*g2 = v (mod p), starting from (u, v) =
        (a, p), and cancels the leading term of the longer of u and v
        with a shifted copy of the other until u = 1."""
        u, v = a, self.bits
        g1, g2 = 1, 0
        du, dv = u.bit_length(), v.bit_length()
        while u != 1:
            j = du - dv
            if j < 0:
                u, v, g1, g2, du, dv, j = v, u, g2, g1, dv, du, -j
            u ^= v << j
            g1 ^= g2 << j
            du = u.bit_length()
        return self.reduce(g1)


_TERM_RE = re.compile(r"^(1|x|x\^(\d+))$")

# The largest exponent polynomial text may hold, checked before any
# shift builds the bits: x^99999999999 would take 12 GB.  The Rabin test
# of a sparse modulus near this degree takes about 0.3 s on 2 vCPUs
# (0.27 s for the irreducible 1+x^84+x^9689).
MAX_EXPONENT = 10_000


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
            if e > MAX_EXPONENT:
                raise ValueError(f"exponent {e} is above {MAX_EXPONENT}")
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


def is_irreducible(bits: int) -> bool:
    """Rabin irreducibility test over GF(2) of q, packed as ``bits``.

    Checks x^(2^n) == x (mod q) and gcd(x^(2^(n/r)) - x, q) = 1 for every
    prime r dividing n.
    """
    if bits == 0:
        raise ValueError("irreducibility of the zero polynomial is undefined")
    n = poly_degree(bits)
    if n == 0:
        return False
    if n == 1:
        return True
    checkpoints = {n // r for r in _prime_factors(n)}
    kernel = Kernel(bits)
    x = kernel.reduce(2)
    t = x
    for k in range(1, n + 1):
        t = kernel.square(t)
        if k in checkpoints:
            if poly_gcd(t ^ 2, bits) != 1:
                return False
    return t == x


class IrreduciblePoly(Kernel):
    """An irreducible polynomial p of degree n >= 1, defining F2^n.

    The constant term must be 1 (true of every irreducible polynomial of
    degree >= 1 other than x itself, which generates no field extension
    worth the name here).  Immutable; equality and hashing depend on
    ``bits`` only.  The arithmetic is the kernel's; the Gauss-Jordan rows
    of z -> z^2 + z, which ``solve_quadratic`` and ``FieldElem.trace``
    read, are computed on first use and kept.
    """

    def __init__(self, bits: int):
        if bits < 2:
            raise ValueError("modulus must have degree >= 1")
        if not bits & 1:
            raise ValueError("modulus must have constant term 1")
        if not is_irreducible(bits):
            raise ValueError(f"polynomial {poly_to_text(bits)} is reducible")
        super().__init__(bits)

    @classmethod
    def from_string(cls, text: str) -> "IrreduciblePoly":
        return cls(parse_poly_text(text))

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.bits == other.bits

    def __hash__(self) -> int:
        return hash(self.bits)

    def __repr__(self) -> str:
        return f"IrreduciblePoly.from_string({str(self)!r})"

    @property
    def support(self) -> tuple[int, ...]:
        return support_of(self.bits)

    def elem(self, value: int) -> "FieldElem":
        """The element of packed value ``value``, 0 <= value < 2^n."""
        return FieldElem(value, self)

    def one(self) -> "FieldElem":
        return FieldElem(1, self)

    def __str__(self) -> str:
        return poly_to_text(self.bits)

    @cached_property
    def _quadratic_solver(self) -> tuple[tuple[int, int, int], ...]:
        """Gauss-Jordan form of z -> z^2 + z on the span of x, ..., x^(n-1).

        The map is GF(2)-linear with kernel {0, 1}, so it is injective on
        that span and the span's image is the whole image.  Each returned
        row is (pivot bit, image, preimage): no other row's image has the
        pivot bit set, and preimage^2 + preimage = image.
        """
        rows: list[list[int]] = []
        for i in range(1, self.n):
            image = self.square(1 << i) ^ (1 << i)
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

    @cached_property
    def _trace_mask(self) -> int:
        """The bits whose parity is the trace: Tr a = parity(a & mask).

        The rows' images span the image of z -> z^2 + z, the kernel of
        the trace.  Each image is its pivot bit plus at most the one bit
        f that is no row's pivot, so reducing a by the rows leaves only
        bit f: a's bit f plus a's bits at the pivots of the rows that
        hold f.  It is 0 exactly when a lies in the image."""
        rows = self._quadratic_solver
        pivots = sum(1 << pivot for pivot, _, _ in rows)
        f = (self.mask ^ pivots).bit_length() - 1
        mask = 1 << f
        for pivot, image, _ in rows:
            if image >> f & 1:
                mask |= 1 << pivot
        return mask


@dataclass(frozen=True, slots=True, init=False)
class FieldElem:
    """An element of F2^n, stored as a width-n residue.

    The constructor checks the range of a value that comes from outside;
    the results of the field operations are in range by construction and
    skip it (``_wrap``)."""

    value: int
    field: IrreduciblePoly

    def __init__(self, value: int, field: IrreduciblePoly):
        if value < 0 or value >> field.n:
            raise ValueError("element out of range for the field")
        _set_value(self, value)
        _set_field(self, field)

    def _check(self, other: "FieldElem"):
        if self.field is not other.field \
                and self.field.bits != other.field.bits:
            raise ModulusMismatch("operands live in different fields")

    def __add__(self, other: "FieldElem") -> "FieldElem":
        self._check(other)
        return _wrap(self.value ^ other.value, self.field)

    __sub__ = __add__

    def __mul__(self, other: "FieldElem") -> "FieldElem":
        self._check(other)
        field = self.field
        return _wrap(field.mul(self.value, other.value), field)

    def __truediv__(self, other: "FieldElem") -> "FieldElem":
        return self * other.inverse()

    def __bool__(self) -> bool:
        return self.value != 0

    def square(self) -> "FieldElem":
        field = self.field
        return _wrap(field.square(self.value), field)

    def sqrt(self) -> "FieldElem":
        """Unique square root, via (n-1)-fold squaring (a^(2^(n-1)))."""
        square = self.field.square
        r = self.value
        for _ in range(self.field.n - 1):
            r = square(r)
        return _wrap(r, self.field)

    def inverse(self) -> "FieldElem":
        if self.value == 0:
            raise NotInvertible("inverse of zero")
        field = self.field
        return _wrap(field.inverse(self.value), field)

    def trace(self) -> int:
        """Absolute trace, as an int in {0, 1}."""
        return (self.value & self.field._trace_mask).bit_count() & 1

    def __str__(self) -> str:
        return poly_to_text(self.value)


# The slot setters of the frozen FieldElem.
_set_value = FieldElem.value.__set__
_set_field = FieldElem.field.__set__
_new = object.__new__


def _wrap(value: int, field: IrreduciblePoly) -> FieldElem:
    """A FieldElem for a field-operation result, in range by construction."""
    e = _new(FieldElem)
    _set_value(e, value)
    _set_field(e, field)
    return e


def solve_quadratic(c: FieldElem) -> Optional[FieldElem]:
    """A solution z of z^2 + z = c, or None when none exists (trace 1).

    A root exists exactly when Tr c = 0.  Every n then solves the linear
    system of z -> z^2 + z by the Gauss-Jordan rows kept on the field,
    which give the root with bit 0 clear (the other root is z + 1).  For
    odd n, Tr 1 = 1, so the two roots differ in trace; the one of trace
    0 is returned, which is the half-trace of c."""
    if c.trace():
        return None
    field = c.field
    rest = c.value
    z = 0
    for pivot, image, pre in field._quadratic_solver:
        if rest >> pivot & 1:
            rest ^= image
            z ^= pre
    root = _wrap(z, field)
    if field.n & 1 and root.trace():
        root = _wrap(z ^ 1, field)
    return root

"""F2-linear maps on F2^n as n x n bit matrices.

A matrix is stored as a tuple of n row bitmasks: bit i of ``rows[j]`` is
the entry in row j, column i.  Vectors are packed integers (bit i =
coordinate i) and act as columns: output bit j of M v is the parity of
``rows[j] & v``.

Builders are provided for the three linear maps used by field-operation
synthesis: multiplication by a nonzero constant, squaring (the Frobenius
map), and square root (its inverse).
"""

from __future__ import annotations

from dataclasses import dataclass

from .gf2field import FieldElem, IrreduciblePoly, support_of


@dataclass(frozen=True)
class BinMatrix:
    """A square bit matrix over GF(2) with packed integer rows."""

    n: int
    rows: tuple[int, ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("matrix dimension must be >= 1")
        if len(self.rows) != self.n:
            raise ValueError("row count does not match dimension")
        mask = (1 << self.n) - 1
        for r in self.rows:
            if r < 0 or r & ~mask:
                raise ValueError("row has bits outside the matrix width")

    @property
    def weight(self) -> int:
        """Total number of nonzero entries."""
        return sum(r.bit_count() for r in self.rows)

    @property
    def max_degree(self) -> int:
        """Largest row or column weight (the CNOT-depth of the map)."""
        cols = [0] * self.n
        for r in self.rows:
            for i in support_of(r):
                cols[i] += 1
        return max(max(r.bit_count() for r in self.rows), max(cols))

    def __matmul__(self, other: "BinMatrix") -> "BinMatrix":
        if self.n != other.n:
            raise ValueError("dimension mismatch")
        # Row j of the product is the XOR of other's rows selected by
        # the bits of self's row j.
        rows = []
        for r in self.rows:
            acc = 0
            for i in support_of(r):
                acc ^= other.rows[i]
            rows.append(acc)
        return BinMatrix(self.n, tuple(rows))


# ----------------------------------------------------------------------
# Field-map builders
# ----------------------------------------------------------------------

def _matrix_from_columns(n: int, cols) -> BinMatrix:
    rows = [0] * n
    for i, c in enumerate(cols):
        for j in support_of(c):
            rows[j] |= 1 << i
    return BinMatrix(n, tuple(rows))


def matrix_of_const_mul(c: FieldElem) -> BinMatrix:
    """Matrix of multiplication by a constant c in F2^n (all zero for c = 0)."""
    reduce = c.field.reduce
    n = c.field.n
    cols = []
    cur = c.value
    for _ in range(n):
        cols.append(cur)
        cur = reduce(cur << 1)
    return _matrix_from_columns(n, cols)


def matrix_of_squaring(field: IrreduciblePoly) -> BinMatrix:
    """Matrix of the Frobenius map a -> a^2; column i is x^(2i) mod p."""
    reduce = field.reduce
    n = field.n
    cols = []
    cur = 1
    for _ in range(n):
        cols.append(cur)
        cur = reduce(cur << 2)
    return _matrix_from_columns(n, cols)


def matrix_of_sqrt(field: IrreduciblePoly) -> BinMatrix:
    """Matrix of the inverse Frobenius map a -> sqrt(a).

    Column i is sqrt(x^i): x^(i/2) for even i and x^((i-1)/2) * sqrt(x)
    for odd i, where sqrt(x) = x^(2^(n-1)) (Hankerson, Menezes and
    Vanstone, Guide to ECC, section 2.3).
    """
    reduce = field.reduce
    n = field.n
    odd = FieldElem(reduce(0b10), field).sqrt().value
    cols = []
    for i in range(n):
        if i & 1:
            cols.append(odd)
            odd = reduce(odd << 1)
        else:
            cols.append(1 << (i >> 1))
    return _matrix_from_columns(n, cols)

"""Bit-matrix linear maps: structure, builders, and cost figures."""

import pytest

from conftest import (
    first_irreducible,
    is_invertible,
    random_invertible,
    ref_apply,
    ref_entries,
    ref_identity,
    ref_max_degree,
    ref_poly_mod,
)
from ecadd.gf2field import IrreduciblePoly
from ecadd.linmaps import (
    BinMatrix,
    matrix_of_const_mul,
    matrix_of_sqrt,
    matrix_of_squaring,
)


class TestBinMatrix:
    def test_identity(self):
        m = ref_identity(4)
        assert m.weight == 4
        assert m.max_degree == 1
        for v in range(16):
            assert ref_apply(m, v) == v

    def test_validation(self):
        with pytest.raises(ValueError):
            BinMatrix(0, ())
        with pytest.raises(ValueError):
            BinMatrix(2, (1,))
        with pytest.raises(ValueError):
            BinMatrix(2, (1, 4))  # bit outside width

    def test_weights_and_degree(self, rng):
        m = BinMatrix(3, (0b011, 0b010, 0b111))
        assert m.weight == 6
        assert m.max_degree == 3
        assert BinMatrix(3, (0, 0, 0)).max_degree == 0
        # Column 0 is full while every row has weight 1 or 2.
        assert BinMatrix(3, (0b001, 0b011, 0b101)).max_degree == 3
        # Up to n = 40, so that column weights take up to six bits.
        for _ in range(50):
            n = rng.randint(1, 40)
            m = BinMatrix(n, tuple(rng.getrandbits(n) for _ in range(n)))
            entries = ref_entries(m)
            assert m.weight == len(entries)
            assert m.max_degree == ref_max_degree(entries)

    def test_matmul_matches_composed_apply(self, rng):
        for _ in range(50):
            n = rng.randint(1, 10)
            a = BinMatrix(n, tuple(rng.getrandbits(n) for _ in range(n)))
            b = BinMatrix(n, tuple(rng.getrandbits(n) for _ in range(n)))
            ab = a @ b
            for _ in range(10):
                v = rng.getrandbits(n)
                assert ref_apply(ab, v) == ref_apply(a, ref_apply(b, v))


class TestFieldMapBuilders:
    def test_const_mul_worked_example(self, f8):
        # Multiplication by 1+x+x^2 in F8 = F2[x]/(1+x+x^3).
        m = matrix_of_const_mul(f8.elem(0b111))
        # Row j as a bitmask: bit i is the entry in column i.
        assert m == BinMatrix(3, (0b111, 0b001, 0b011))
        assert m.weight == 6
        assert m.max_degree == 3

    def test_squaring_worked_example(self, f128):
        # Squaring in F128 = F2[x]/(1+x+x^7).
        m = matrix_of_squaring(f128)
        assert m.weight == 10
        assert m.max_degree == 2

    def test_const_mul_matches_field_mul(self, rng):
        for n in (2, 3, 5, 8, 11):
            fld = first_irreducible(n)
            for _ in range(20):
                c = fld.elem(rng.getrandbits(n))
                if c.value == 0:
                    continue
                m = matrix_of_const_mul(c)
                for _ in range(10):
                    a = fld.elem(rng.getrandbits(n))
                    assert ref_apply(m, a.value) == (c * a).value

    def test_const_mul_by_one_is_identity(self, f16):
        assert matrix_of_const_mul(f16.one()) == ref_identity(4)

    def test_const_mul_zero_is_zero_matrix(self, f8):
        m = matrix_of_const_mul(f8.elem(0))
        assert m == BinMatrix(3, (0, 0, 0))
        assert m.weight == 0

    def test_squaring_and_sqrt_match_field_ops(self, rng):
        for n in (2, 3, 5, 8, 13):
            fld = first_irreducible(n)
            msq = matrix_of_squaring(fld)
            msr = matrix_of_sqrt(fld)
            for _ in range(40):
                a = fld.elem(rng.getrandbits(n))
                assert ref_apply(msq, a.value) == a.square().value
                assert ref_apply(msr, a.value) == a.sqrt().value

    def test_sqrt_inverts_squaring(self):
        for text in ("1+x+x^4", "1+x^3+x^6+x^7+x^163", "1+x^74+x^233"):
            fld = IrreduciblePoly.from_string(text)
            assert matrix_of_sqrt(fld) @ matrix_of_squaring(fld) \
                == ref_identity(fld.n)

    def test_nist_squaring_weight_is_column_popcount_sum(self):
        # Independent weight computation: weight = sum_i |x^(2i) mod p|.
        for text in ("1+x^3+x^6+x^7+x^163", "1+x^74+x^233",
                     "1+x^5+x^7+x^12+x^283"):
            fld = IrreduciblePoly.from_string(text)
            p = fld.bits
            expect = sum(
                ref_poly_mod(1 << (2 * i), p).bit_count() for i in range(fld.n)
            )
            assert matrix_of_squaring(fld).weight == expect

    def test_random_invertible_is_invertible(self, rng):
        for n in (1, 2, 7, 20):
            for _ in range(10):
                assert is_invertible(random_invertible(n, rng))
        # The rank check against the definition: every matrix with n <= 3
        # is invertible iff it maps the 2^n vectors to 2^n distinct ones.
        for n in (1, 2, 3):
            for bits in range(1 << (n * n)):
                m = BinMatrix(n, tuple(bits >> (n * j) & ((1 << n) - 1)
                                       for j in range(n)))
                images = {ref_apply(m, v) for v in range(1 << n)}
                assert is_invertible(m) == (len(images) == 1 << n)

"""Binary-field arithmetic against naive reference implementations."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    first_irreducible,
    ref_field_mul,
    ref_half_trace,
    ref_is_irreducible,
    ref_poly_divmod,
    ref_poly_inv_mod,
    ref_poly_mod,
    ref_poly_mul,
    ref_trace,
)
from ecadd.gf2field import (
    FieldElem,
    IrreduciblePoly,
    ModulusMismatch,
    NotInvertible,
    is_irreducible,
    parse_element_text,
    parse_poly_text,
    poly_degree,
    poly_gcd,
    poly_mul,
    poly_to_text,
    solve_quadratic,
    support_of,
)


class TestPolyText:
    def test_parse_basic(self):
        assert parse_poly_text("1") == 1
        assert parse_poly_text("x") == 2
        assert parse_poly_text("x^2") == 4
        assert parse_poly_text("1+x^74+x^233") == 1 | 1 << 74 | 1 << 233
        assert parse_poly_text("x^3 + x + 1") == 0b1011

    def test_parse_any_order(self):
        assert parse_poly_text("x^5+1+x") == parse_poly_text("1+x+x^5")

    @pytest.mark.parametrize("bad", ["", "y", "x^", "x2", "1+1", "x+x", "+", "1+"])
    def test_parse_rejects(self, bad):
        with pytest.raises(ValueError):
            parse_poly_text(bad)

    def test_element_text_hex_and_zero(self):
        assert parse_element_text("0x1f") == 0x1F
        assert parse_element_text("0X2") == 2
        assert parse_element_text("0") == 0
        assert parse_element_text(" 1+x ") == 3

    def test_to_text_round_trip(self, rng):
        for _ in range(200):
            bits = rng.getrandbits(40)
            assert parse_element_text(poly_to_text(bits)) == bits

    def test_support(self):
        assert support_of(0) == ()
        assert support_of(0b101001) == (0, 3, 5)


class TestPolyArithmetic:
    def test_degree(self):
        assert poly_degree(0) == -1
        assert poly_degree(1) == 0
        assert poly_degree(0b1000) == 3

    def test_mul_matches_reference(self, rng):
        for _ in range(300):
            a, b = rng.getrandbits(24), rng.getrandbits(24)
            assert poly_mul(a, b) == ref_poly_mul(a, b)

    def test_divmod_invariant(self, rng):
        for _ in range(300):
            a = rng.getrandbits(30)
            b = rng.getrandbits(12) | 1 << 12
            q, r = ref_poly_divmod(a, b)
            assert poly_degree(r) < poly_degree(b)
            assert poly_mul(q, b) ^ r == a
            assert r == ref_poly_mod(a, b)

    def test_gcd_properties(self, rng):
        assert poly_gcd(0, 0) == 0
        assert poly_gcd(0b1011, 0) == poly_gcd(0, 0b1011) == 0b1011
        for _ in range(100):
            a, b = rng.getrandbits(16), rng.getrandbits(16)
            g = poly_gcd(a, b)
            if a or b:
                assert ref_poly_mod(a, g) == 0 and ref_poly_mod(b, g) == 0
            # The Euclidean algorithm with long division gives the same.
            r0, r1 = a, b
            while r1:
                r0, r1 = r1, ref_poly_mod(r0, r1)
            assert g == r0

    def test_inv_mod(self, f16):
        m = f16.bits  # 1+x+x^4, irreducible
        for a in range(1, 16):
            inv = f16.elem(a).inverse().value
            assert inv == ref_poly_inv_mod(a, m)
            assert ref_field_mul(a, inv, m) == 1
        with pytest.raises(NotInvertible):
            f16.elem(0).inverse()


class TestIrreducibility:
    def test_matches_trial_division_small_degrees(self):
        # Every polynomial of degree 2..9 with constant term 1.
        for n in range(2, 10):
            for mid in range(1 << (n - 1)):
                bits = (1 << n) | (mid << 1) | 1
                assert is_irreducible(bits) == ref_is_irreducible(bits), bin(bits)

    def test_counts_match_necklace_formula(self):
        # Number of monic irreducible polynomials of degree n over GF(2):
        # (1/n) * sum_{d|n} mu(n/d) 2^d.
        mu = {1: 1, 2: -1, 3: -1, 4: 0, 5: -1, 6: 1, 7: -1, 8: 0, 10: 1, 12: 0}
        for n in (4, 6, 8, 12):
            count = sum(
                1
                for mid in range(1 << (n - 1))
                for bits in [(1 << n) | (mid << 1) | 1]
                if is_irreducible(bits)
            )
            # Polynomials with constant term 0 (other than x) are never
            # irreducible, so restricting to constant term 1 keeps all of
            # them for n >= 2.
            expect = sum(
                mu[n // d] * (1 << d) for d in range(1, n + 1) if n % d == 0
            ) // n
            assert count == expect

    def test_nist_moduli_accepted(self):
        for text in ("1+x^3+x^6+x^7+x^163", "1+x^74+x^233",
                     "1+x^5+x^7+x^12+x^283", "1+x^87+x^409",
                     "1+x^2+x^5+x^10+x^571"):
            fld = IrreduciblePoly.from_string(text)  # must not raise
            assert fld.bits == parse_poly_text(text)
            assert is_irreducible(fld.bits)

    def test_reducible_rejected(self):
        with pytest.raises(ValueError):
            IrreduciblePoly.from_string("1+x^2")
        with pytest.raises(ValueError):
            IrreduciblePoly.from_string("1")
        with pytest.raises(ValueError):
            IrreduciblePoly.from_string("1+x+x^2+x^3")  # (1+x)(1+x^2)


class TestFieldElem:
    def test_ring_axioms_sampled(self, rng):
        fld = first_irreducible(11)
        mbits = fld.bits
        for _ in range(150):
            a, b, c = (fld.elem(rng.getrandbits(11)) for _ in range(3))
            assert ((a + b) + c).value == (a + (b + c)).value
            assert (a * b).value == (b * a).value
            assert ((a * b) * c).value == (a * (b * c)).value
            assert (a * (b + c)).value == ((a * b) + (a * c)).value
            assert (a * b).value == ref_field_mul(a.value, b.value, mbits)

    def test_inverse_and_division(self, f16, rng):
        for v in range(1, 16):
            a = f16.elem(v)
            assert (a * a.inverse()).value == 1
            assert (a / a).value == 1
        with pytest.raises(NotInvertible):
            f16.elem(0).inverse()

    def test_square_and_sqrt(self, rng):
        for n in (3, 4, 7, 10):
            fld = first_irreducible(n)
            for _ in range(60):
                a = fld.elem(rng.getrandbits(n))
                assert a.square().value == (a * a).value
                assert a.square().sqrt().value == a.value
                assert a.sqrt().square().value == a.value

    def test_trace_is_additive_and_binary(self, rng):
        fld = first_irreducible(9)
        for _ in range(80):
            a = fld.elem(rng.getrandbits(9))
            b = fld.elem(rng.getrandbits(9))
            assert a.trace() in (0, 1)
            assert (a + b).trace() == a.trace() ^ b.trace()

    def test_trace_balanced(self):
        fld = first_irreducible(6)
        traces = [fld.elem(v).trace() for v in range(64)]
        assert sum(traces) == 32  # exactly half the elements have trace 1

    @pytest.mark.parametrize("poly", ["1+x^2+x^5", "1+x+x^7", "1+x^3+x^17",
                                      "1+x+x^2+x^5+x^19", "1+x^3+x^6+x^7+x^163",
                                      "1+x^74+x^233", "1+x^2+x^5+x^10+x^571"])
    def test_half_trace_matches_squaring_loop(self, poly, rng):
        # For odd n, the root solve_quadratic gives is the half-trace.
        fld = IrreduciblePoly.from_string(poly)
        for _ in range(30):
            a = fld.elem(rng.getrandbits(fld.n))
            z = solve_quadratic(a)
            if ref_trace(a) == 0:
                assert z == ref_half_trace(a)
            else:
                assert z is None

    def test_modulus_mismatch(self, f8, f16):
        # Parsing the same text twice gives equal, separate field objects;
        # their elements mix, through the comparison of moduli.
        twin = IrreduciblePoly.from_string("1+x+x^3")
        assert twin is not f8 and twin == f8 and hash(twin) == hash(f8)
        assert (f8.elem(3) + twin.elem(5)).value == 6
        assert (f8.elem(3) * twin.elem(5)).value == ref_field_mul(3, 5, f8.bits)
        assert f8 != f16
        with pytest.raises(ModulusMismatch):
            f8.elem(1) + f16.elem(1)
        with pytest.raises(ModulusMismatch):
            f8.elem(1) * f16.elem(1)

    def test_field_properties(self, f8):
        assert f8.n == 3
        assert f8.support == (0, 1, 3)
        assert str(f8) == "1+x+x^3"
        assert f8.one().value == 1
        with pytest.raises(AttributeError):
            f8.n = 4
        with pytest.raises(AttributeError):
            f8.bits = 0b1101

    def test_value_range_checked(self, f8):
        with pytest.raises(ValueError):
            FieldElem(8, f8)
        with pytest.raises(ValueError):
            FieldElem(-1, f8)


class TestSolveQuadratic:
    def test_every_small_modulus(self):
        """On every irreducible modulus with n <= 8 and every c: None
        exactly when Tr c = 1; else the half-trace for odd n and the
        smallest root for even n."""
        for n in range(1, 9):
            for bits in range(1 << n, 1 << (n + 1)):
                if not (bits & 1 and ref_is_irreducible(bits)):
                    continue
                fld = IrreduciblePoly(bits)
                smallest = {}
                for z in range(1 << n):
                    e = fld.elem(z)
                    smallest.setdefault((e.square() + e).value, z)
                for cv in range(1 << n):
                    c = fld.elem(cv)
                    z = solve_quadratic(c)
                    trace = ref_trace(c)
                    assert c.trace() == trace
                    if trace:
                        assert z is None
                    elif n % 2:
                        assert z == ref_half_trace(c)
                    else:
                        assert z.value == smallest[cv]

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 9, 10])
    def test_solution_or_none_exhaustive(self, n):
        fld = first_irreducible(n)
        image = {(fld.elem(z).square() + fld.elem(z)).value
                 for z in range(1 << n)}
        for cv in range(1 << n):
            z = solve_quadratic(fld.elem(cv))
            if cv in image:
                assert z is not None and (z.square() + z).value == cv
            else:
                assert z is None

    @pytest.mark.parametrize("n", [2, 4, 6, 8, 10, 12])
    def test_even_degree_matches_brute_force(self, n):
        """Even n returns the smallest root, which has bit 0 clear."""
        fld = first_irreducible(n)
        smallest = {}
        for z in range(1 << n):
            smallest.setdefault((fld.elem(z).square() + fld.elem(z)).value, z)
        for cv in range(1 << n):
            z = solve_quadratic(fld.elem(cv))
            assert (None if z is None else z.value) == smallest.get(cv)

    @pytest.mark.parametrize("n", [18, 20])
    def test_even_degree_above_16(self, n, rng):
        fld = first_irreducible(n)
        solved = 0
        for _ in range(200):
            c = fld.elem(rng.getrandbits(n))
            z = solve_quadratic(c)
            if z is None:
                assert c.trace() == 1
            else:
                assert (z.square() + z).value == c.value
                solved += 1
        assert 0 < solved < 200


DSS_MODULI = ("1+x^3+x^6+x^7+x^163", "1+x^74+x^233", "1+x^5+x^7+x^12+x^283",
              "1+x^87+x^409", "1+x^2+x^5+x^10+x^571")
KERNEL_FIELDS = ([first_irreducible(n) for n in range(1, 25)]
                 + [IrreduciblePoly.from_string(t) for t in DSS_MODULI])


@st.composite
def field_and_values(draw):
    """A modulus of degree n and two values of up to 2n bits."""
    fld = draw(st.sampled_from(KERNEL_FIELDS))
    value = st.integers(0, (1 << (2 * fld.n)) - 1)
    return fld, draw(value), draw(value)


class TestKernelExactness:
    """Each FieldElem operation gives the residue of schoolbook
    arithmetic with long division, bit for bit."""

    def test_trace_matches_reference(self, rng):
        for fld in KERNEL_FIELDS:
            for v in [0, 1] + [rng.getrandbits(fld.n) for _ in range(8)]:
                a = fld.elem(v)
                assert a.trace() == ref_trace(a), (str(fld), v)

    @settings(max_examples=150, deadline=None)
    @given(field_and_values())
    @example((first_irreducible(1), 0, 1))
    @example((first_irreducible(1), 3, 2))
    @example((KERNEL_FIELDS[-1], 0, 1))
    @example((KERNEL_FIELDS[-1], (1 << 1142) - 1, 1 << 1141))
    def test_matches_reference(self, case):
        fld, u, v = case
        p = fld.bits
        a, b = fld.elem(fld.reduce(u)), fld.elem(fld.reduce(v))
        assert a.value == ref_poly_mod(u, p)
        assert b.value == ref_poly_mod(v, p)
        assert (a * b).value == ref_field_mul(a.value, b.value, p)
        assert a.square().value == ref_field_mul(a.value, a.value, p)
        root = a.sqrt().value
        assert ref_field_mul(root, root, p) == a.value
        if a.value:
            assert ref_field_mul(a.value, a.inverse().value, p) == 1

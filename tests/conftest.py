"""Shared fixtures and independent reference implementations.

The reference ("oracle") routines here are deliberately written from
scratch -- naive, slow, and structurally different from the package code
-- so that agreement between the two is meaningful.
"""

from __future__ import annotations

import random

import pytest

from ecadd.circuit_ir import (
    CNOT,
    KIND_NAMES,
    NOT,
    T,
    T_DAGGER,
    TOFFOLI,
    TOFFOLI_DECOMP_DEPTH,
    TOFFOLI_DECOMP_T_DEPTH,
    Circuit,
)
from ecadd.gf2field import IrreduciblePoly


# ----------------------------------------------------------------------
# Reference polynomial arithmetic over GF(2), coefficient-list style
# ----------------------------------------------------------------------

def bits_to_coeffs(bits: int) -> list[int]:
    out = []
    while bits:
        out.append(bits & 1)
        bits >>= 1
    return out or [0]


def coeffs_to_bits(coeffs) -> int:
    return sum((c & 1) << i for i, c in enumerate(coeffs))


def ref_poly_mul(a: int, b: int) -> int:
    """Schoolbook convolution over GF(2)."""
    ca, cb = bits_to_coeffs(a), bits_to_coeffs(b)
    out = [0] * (len(ca) + len(cb))
    for i, x in enumerate(ca):
        for j, y in enumerate(cb):
            out[i + j] ^= x & y
    return coeffs_to_bits(out)


def ref_poly_mod(a: int, m: int) -> int:
    """Long division remainder over GF(2)."""
    dm = m.bit_length() - 1
    while a.bit_length() - 1 >= dm:
        a ^= m << (a.bit_length() - 1 - dm)
    return a


def ref_field_mul(a: int, b: int, modulus: int) -> int:
    return ref_poly_mod(ref_poly_mul(a, b), modulus)


def ref_is_irreducible(bits: int) -> bool:
    """Trial division by every lower-degree polynomial (small degrees)."""
    n = bits.bit_length() - 1
    if n <= 0:
        return False
    if n == 1:
        return True
    for d in range(2, 1 << n):
        if d.bit_length() - 1 >= 1 and ref_poly_mod(bits, d) == 0 \
                and d.bit_length() - 1 < n:
            return False
    return True


def first_irreducible(n: int) -> IrreduciblePoly:
    """Deterministic smallest irreducible polynomial of degree n."""
    for mid in range(1 << (n - 1)):
        bits = (1 << n) | (mid << 1) | 1
        try:
            return IrreduciblePoly.from_string(_poly_text(bits))
        except ValueError:
            continue
    raise AssertionError(f"no irreducible polynomial of degree {n}?")


# ----------------------------------------------------------------------
# Reference squaring / square-root matrices, as lists of column polynomials
# ----------------------------------------------------------------------

def ref_squaring_columns(modulus: int) -> list[int]:
    """Column i of the squaring map: x^(2i) mod f, by long division."""
    n = modulus.bit_length() - 1
    return [ref_poly_mod(1 << (2 * i), modulus) for i in range(n)]


def ref_sqrt_columns(modulus: int) -> list[int]:
    """Column i of the square-root map: sqrt(x)^i mod f.

    sqrt(x) = x^(2^(n-1)) by n-1 squarings, each spreading the
    coefficients (a^2 = sum a_i x^(2i) over GF(2)) and reducing; then
    sqrt(x^(2k)) = x^k and sqrt(x^(2k+1)) = x^k * sqrt(x).
    """
    n = modulus.bit_length() - 1
    root = 0b10
    for _ in range(n - 1):
        spread = [c for a in bits_to_coeffs(root) for c in (a, 0)]
        root = ref_poly_mod(coeffs_to_bits(spread), modulus)
    cols, odd = [], root
    for i in range(n):
        if i % 2 == 0:
            cols.append(1 << (i // 2))
        else:
            cols.append(odd)
            odd = ref_poly_mod(odd << 1, modulus)
    return cols


def ref_weight(cols) -> int:
    """Number of nonzero entries of a matrix given by its columns."""
    return sum(bin(c).count("1") for c in cols)


def ref_inverts_squaring(matrix, modulus: int) -> bool:
    """True iff R * S = I for the row-packed matrix R and S the squaring map.

    Bit i of ``matrix.rows[j]`` is the entry in row j, column i.
    """
    for i, col in enumerate(ref_squaring_columns(modulus)):
        image = sum((bin(r & col).count("1") & 1) << j
                    for j, r in enumerate(matrix.rows))
        if image != 1 << i:
            return False
    return True


def _poly_text(bits: int) -> str:
    terms = []
    i = 0
    while bits:
        if bits & 1:
            terms.append("1" if i == 0 else ("x" if i == 1 else f"x^{i}"))
        bits >>= 1
        i += 1
    return "+".join(terms)


# ----------------------------------------------------------------------
# Random classical circuits (for round-trip / simulator tests)
# ----------------------------------------------------------------------

def random_classical_circuit(rng: random.Random, max_wires: int = 8,
                             max_gates: int = 30) -> Circuit:
    c = Circuit()
    width = rng.randint(1, max_wires)
    for i in range(width):
        c.add_wire(f"w{i}")
    open_group = False
    for _ in range(rng.randint(0, max_gates)):
        if not open_group and width >= 1 and rng.random() < 0.15:
            c.begin_group(rng.choice(("blk", "S", "M", "xyZ")))
            open_group = True
        choices = [NOT]
        if width >= 2:
            choices.append(CNOT)
        if width >= 3:
            choices.append(TOFFOLI)
        kind = rng.choice(choices)
        wires = rng.sample(range(width), (1, 2, 3)[kind])
        c.append(kind, *wires)
        if open_group and rng.random() < 0.3:
            c.end_group()
            open_group = False
    if open_group:
        c.end_group()
    return c


def ref_simulate(circuit: Circuit, state: int) -> int:
    """Independent gate-by-gate simulation using the Gate view."""
    bits = [state >> i & 1 for i in range(circuit.width)]
    for g in circuit:
        ws = g.wires
        if g.name == "not":
            bits[ws[0]] ^= 1
        elif g.name == "cnot":
            bits[ws[1]] ^= bits[ws[0]]
        elif g.name == "toffoli":
            bits[ws[2]] ^= bits[ws[0]] & bits[ws[1]]
        else:
            raise AssertionError(f"non-classical gate {g.name}")
    out = [bits[p] for p in circuit.out_permutation]
    return sum(b << i for i, b in enumerate(out))


# ----------------------------------------------------------------------
# Reference schedule: a general four-array pass, run again on each group
# ----------------------------------------------------------------------

def ref_schedule(gates, width):
    """Return (depth, t_depth, block_depth, block_t_depth) of a gate list.

    The block figures are the decomposed-equivalent schedule where each
    Toffoli occupies 8 depth units and 4 T-stages on all three wires.
    """
    level = [0] * width
    tlevel = [0] * width
    blevel = [0] * width
    btlevel = [0] * width
    for g in gates:
        k = g[0]
        ws = g[1:]
        if k == TOFFOLI:
            dur, tdur, bdur, btdur = 1, 0, TOFFOLI_DECOMP_DEPTH, TOFFOLI_DECOMP_T_DEPTH
        elif k == T or k == T_DAGGER:
            dur, tdur, bdur, btdur = 1, 1, 1, 1
        else:
            dur, tdur, bdur, btdur = 1, 0, 1, 0
        if len(ws) == 1:
            w0 = ws[0]
            level[w0] += dur
            tlevel[w0] += tdur
            blevel[w0] += bdur
            btlevel[w0] += btdur
        else:
            lv = max(level[w] for w in ws) + dur
            tl = max(tlevel[w] for w in ws) + tdur
            bl = max(blevel[w] for w in ws) + bdur
            btl = max(btlevel[w] for w in ws) + btdur
            for w in ws:
                level[w] = lv
                tlevel[w] = tl
                blevel[w] = bl
                btlevel[w] = btl
    return (
        max(level, default=0),
        max(tlevel, default=0),
        max(blevel, default=0),
        max(btlevel, default=0),
    )


def ref_metrics(circuit: Circuit):
    """((depth, t_depth, block_depth, block_t_depth), subcircuits) with one
    (label, counts, depth) per top-level group, each group scheduled
    again on its own slice of the gate list."""
    gates = circuit.gate_tuples()
    subs = []
    for grp in circuit.top_level_groups():
        span = gates[grp.start:grp.end]
        counts = {name: 0 for name in KIND_NAMES}
        for g in span:
            counts[KIND_NAMES[g[0]]] += 1
        subs.append((grp.label, counts,
                     ref_schedule(span, circuit.width)[0]))
    return ref_schedule(gates, circuit.width), subs


# ----------------------------------------------------------------------
# Fixtures
# ----------------------------------------------------------------------

@pytest.fixture
def f4():
    return IrreduciblePoly.from_string("1+x+x^2")


@pytest.fixture
def f8():
    return IrreduciblePoly.from_string("1+x+x^3")


@pytest.fixture
def f16():
    return IrreduciblePoly.from_string("1+x+x^4")


@pytest.fixture
def f128():
    return IrreduciblePoly.from_string("1+x+x^7")


@pytest.fixture
def rng():
    return random.Random(0xEC0DD)

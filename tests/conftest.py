"""Shared fixtures and independent reference implementations.

The reference ("oracle") routines here are deliberately written from
scratch -- naive, slow, and structurally different from the package code
-- so that agreement between the two is meaningful.
"""

from __future__ import annotations

import random
import re
from collections import Counter

import pytest

from ecadd.circuit_ir import (
    CNOT,
    KIND_NAMES,
    NOT,
    H,
    S,
    S_DAGGER,
    T,
    T_DAGGER,
    TOFFOLI,
    TOFFOLI_DECOMP_DEPTH,
    TOFFOLI_DECOMP_T_DEPTH,
    Circuit,
    runs_of,
)
from ecadd.gf2field import IrreduciblePoly
from ecadd.linmaps import BinMatrix


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


def ref_poly_divmod(a: int, b: int) -> tuple[int, int]:
    """Quotient and remainder of long division over GF(2)."""
    if b == 0:
        raise ZeroDivisionError("division by the zero polynomial")
    db = b.bit_length() - 1
    q = 0
    while True:
        da = a.bit_length() - 1
        if da < db:
            return q, a
        shift = da - db
        q |= 1 << shift
        a ^= b << shift


def ref_poly_inv_mod(a: int, m: int) -> int:
    """Inverse of a modulo m by the extended Euclidean algorithm, with
    full quotient polynomials."""
    r0, r1 = m, ref_poly_mod(a, m)
    if r1 == 0:
        raise ZeroDivisionError("polynomial has no inverse modulo m")
    s0, s1 = 0, 1
    while r1:
        q, r = ref_poly_divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 ^ ref_poly_mul(q, s1)
    if r0 != 1:
        raise ZeroDivisionError("operand shares a factor with the modulus")
    return ref_poly_mod(s0, m)


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


def ref_identity(n: int) -> BinMatrix:
    """The n x n identity: row j holds the single entry in column j."""
    return BinMatrix(n, tuple(1 << j for j in range(n)))


def ref_apply(matrix: BinMatrix, v: int) -> int:
    """M v over GF(2), one matrix entry at a time: entry (j, i) adds
    coordinate i of v into output coordinate j."""
    out = 0
    for j in range(matrix.n):
        for i in range(matrix.n):
            if matrix.rows[j] >> i & 1 and v >> i & 1:
                out ^= 1 << j
    return out


def ref_entries(matrix: BinMatrix) -> list[tuple[int, int]]:
    """The (column, row) position of every nonzero entry."""
    return [(i, j) for j in range(matrix.n) for i in range(matrix.n)
            if matrix.rows[j] >> i & 1]


def ref_max_degree(edges) -> int:
    """Largest number of edges at one vertex of a bipartite (multi)graph,
    counting the left and right sides apart."""
    left = Counter(u for u, _ in edges)
    right = Counter(v for _, v in edges)
    return max(list(left.values()) + list(right.values()), default=0)


def is_invertible(m: BinMatrix) -> bool:
    """Full rank over GF(2): each column in turn has a pivot among the
    rows not yet used, which is then cleared from the other rows."""
    rows = list(m.rows)
    for col in range(m.n):
        bit = 1 << col
        pivot = next((r for r in rows if r & bit), None)
        if pivot is None:
            return False
        rows.remove(pivot)
        rows = [r ^ pivot if r & bit else r for r in rows]
    return True


def random_invertible(n: int, rng: random.Random) -> BinMatrix:
    """A uniformly random invertible n x n bit matrix (rejection sampling)."""
    while True:
        m = BinMatrix(n, tuple(rng.getrandbits(n) for _ in range(n)))
        if is_invertible(m):
            return m


# ----------------------------------------------------------------------
# The tuple view of a circuit's gates, and a circuit built from one
# ----------------------------------------------------------------------

# The number of wires of each gate kind: a run of that kind has one
# wire column per wire.
ARITY = (1, 2, 3, 1, 1, 1, 1, 1)


def gate_tuples(runs) -> list[tuple]:
    """The gates of a run list (a circuit's ``runs``, or a span of
    them) as tuples ``(kind, wire, ...)``, in order."""
    return [(kind, *wires) for kind, cols in runs for wires in zip(*cols)]


def block_spans(circuit: Circuit) -> list[tuple]:
    """``(label, start, end)`` for each labeled block of a circuit, as
    gate indices into ``gate_tuples(circuit.runs)``, end exclusive."""
    spans = []
    pos = 0
    for label, runs in circuit.blocks:
        end = pos + sum(len(cols[0]) for _, cols in runs)
        if label is not None:
            spans.append((label, pos, end))
        pos = end
    return spans


def add_gates(circuit: Circuit, *gates):
    """Add gate tuples ``(kind, wire, ...)`` to a circuit as runs, each
    stretch of one kind as one run."""
    circuit.add_runs(runs_of(gates))


def circuit_of(wires, gates) -> Circuit:
    """A group-free circuit over the wire names ``wires`` with the given
    gate tuples."""
    c = Circuit()
    for name in wires:
        c.add_wire(name)
    add_gates(c, *gates)
    return c


# ----------------------------------------------------------------------
# Random classical circuits (for round-trip / simulator tests)
# ----------------------------------------------------------------------

def random_classical_circuit(rng: random.Random, max_wires: int = 8,
                             max_gates: int = 30) -> Circuit:
    c = Circuit()
    width = rng.randint(1, max_wires)
    for i in range(width):
        c.add_wire(f"w{i}")
    choices = [NOT, CNOT, TOFFOLI][:width]

    def add_random_gate():
        kind = rng.choice(choices)
        add_gates(c, (kind, *rng.sample(range(width), (1, 2, 3)[kind])))

    budget = rng.randint(0, max_gates)
    while budget > 0:
        if rng.random() < 0.15:
            # A group holds one or more gates; 0.3 ends it after each.
            with c.group(rng.choice(("blk", "S", "M", "xyZ"))):
                while budget > 0:
                    add_random_gate()
                    budget -= 1
                    if rng.random() < 0.3:
                        break
        else:
            add_random_gate()
            budget -= 1
    return c


def ref_simulate(circuit: Circuit, state: int) -> int:
    """Independent gate-by-gate simulation over the gate tuples."""
    bits = [state >> i & 1 for i in range(circuit.width)]
    for kind, *ws in gate_tuples(circuit.runs):
        if kind == NOT:
            bits[ws[0]] ^= 1
        elif kind == CNOT:
            bits[ws[1]] ^= bits[ws[0]]
        elif kind == TOFFOLI:
            bits[ws[2]] ^= bits[ws[0]] & bits[ws[1]]
        else:
            raise AssertionError(f"non-classical gate {KIND_NAMES[kind]}")
    return sum(b << i for i, b in enumerate(bits))


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
    (label, counts, depth) per labeled block, each block scheduled
    again on its own slice of the gate list."""
    gates = gate_tuples(circuit.runs)
    subs = []
    for label, start, end in block_spans(circuit):
        span = gates[start:end]
        counts = {name: 0 for name in KIND_NAMES}
        for g in span:
            counts[KIND_NAMES[g[0]]] += 1
        subs.append((label, counts, ref_schedule(span, circuit.width)[0]))
    return ref_schedule(gates, circuit.width), subs


# ----------------------------------------------------------------------
# Reference .qc writer: one list entry per line, joined once
# ----------------------------------------------------------------------

_REF_ONE_WIRE = {H: "H", T: "T", T_DAGGER: "T*", S: "S", S_DAGGER: "S*"}


def _ref_gate_line(kind: int, names) -> str:
    if kind in (NOT, CNOT, TOFFOLI):
        return "tof " + " ".join(names)
    return f"{_REF_ONE_WIRE[kind]} {names[0]}"


def ref_write_qc(circuit: Circuit) -> str:
    """The .qc text of a circuit, built gate by gate into one list of
    lines; labeled blocks become named subcircuits."""
    names = circuit.wires

    lines = [
        ".v " + " ".join(names),
        ".i " + " ".join(names),
        ".o " + " ".join(names),
        "",
    ]

    gates = gate_tuples(circuit.runs)
    spans = []  # (start, end, unique_name)
    taken: set[str] = set()
    for label, start, end in block_spans(circuit):
        base = re.sub(r"[^A-Za-z0-9_]", "_", label)
        # BEGIN and END are keywords, not names a block can be invoked by.
        if (not re.match(r"^[A-Za-z_][A-Za-z0-9_]*$", base)
                or base in ("BEGIN", "END")):
            base = "G_" + base
        # A name already taken gets the smallest free suffix from _2 on.
        name, k = base, 2
        while name in taken:
            name = f"{base}_{k}"
            k += 1
        taken.add(name)
        spans.append((start, end, name))
        lines.append(f"BEGIN {name}")
        for g in gates[start:end]:
            lines.append(_ref_gate_line(g[0], [names[w] for w in g[1:]]))
        lines.append(f"END {name}")
        lines.append("")

    lines.append("BEGIN")
    i = 0
    span_idx = 0
    while i < len(gates):
        if span_idx < len(spans) and spans[span_idx][0] == i:
            start, end, name = spans[span_idx]
            lines.append(name)
            i = end
            span_idx += 1
            continue
        g = gates[i]
        lines.append(_ref_gate_line(g[0], [names[w] for w in g[1:]]))
        i += 1
    # An empty trailing group still needs its invocation.
    while span_idx < len(spans):
        start, end, name = spans[span_idx]
        if start == len(gates):
            lines.append(name)
        span_idx += 1
    lines.append("END")
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# Reference exhaustive inputs: every (X, Y, Z) triple, filtered
# ----------------------------------------------------------------------

def ref_exhaustive_inputs(curve, p2) -> list[tuple[int, int, int]]:
    """The (X, Y, Z) values of every on-curve Lopez-Dahab triple with
    Z != 0 whose affine point is neither P2 nor -P2, found by trying all
    8^n triples."""
    from ecadd.ecoracle import (LDPoint, affine_equal, ld_to_affine, negate,
                                on_curve_ld)

    fld = curve.field
    out = []
    for zv in range(1, 1 << fld.n):
        for xv in range(1 << fld.n):
            for yv in range(1 << fld.n):
                p1 = LDPoint(fld.elem(xv), fld.elem(yv), fld.elem(zv))
                if not on_curve_ld(curve, p1):
                    continue
                pa = ld_to_affine(p1)
                if affine_equal(pa, p2) or affine_equal(pa, negate(p2)):
                    continue
                out.append((xv, yv, zv))
    return out


# ----------------------------------------------------------------------
# Reference point list: every (x, y) pair tested against the curve
# ----------------------------------------------------------------------

def ref_all_affine_points(curve):
    """Every affine point, by testing all 4^n pairs (x, y) in ascending
    order against the curve equation."""
    from ecadd.ecoracle import AffinePoint, on_curve_affine

    fld = curve.field
    out = []
    for xv in range(1 << fld.n):
        for yv in range(1 << fld.n):
            p = AffinePoint(fld.elem(xv), fld.elem(yv))
            if on_curve_affine(curve, p):
                out.append(p)
    return out


# ----------------------------------------------------------------------
# Reference trace and half-trace: squaring loops
# ----------------------------------------------------------------------

def ref_trace(a) -> int:
    """a + a^2 + a^4 + ... + a^(2^(n-1)), which lies in {0, 1}."""
    t = s = a
    for _ in range(a.field.n - 1):
        t = t.square()
        s = s + t
    assert s.value in (0, 1)
    return s.value


def ref_half_trace(a):
    """a + a^4 + a^16 + ... + a^(4^((n-1)/2)) by repeated squaring."""
    h = t = a
    for _ in range((a.field.n - 1) // 2):
        t = t.square().square()
        h = h + t
    return h


# ----------------------------------------------------------------------
# Scalar multiples over the affine group law
# ----------------------------------------------------------------------

def scalar_mul(curve, k: int, p):
    """k * P by double-and-add over ecoracle.affine_add, so every doubling
    goes through affine_add's P + P branch."""
    from ecadd.ecoracle import AffinePoint, affine_add, negate

    if k < 0:
        return scalar_mul(curve, -k, negate(p))
    acc = AffinePoint.infinity()
    addend = p
    while k:
        if k & 1:
            acc = affine_add(curve, acc, addend)
        addend = affine_add(curve, addend, addend)
        k >>= 1
    return acc


# ----------------------------------------------------------------------
# Reference verification: one case at a time, gate-by-gate simulation
# ----------------------------------------------------------------------

def read_register(layout, state: int, name: str) -> int:
    """The n-bit value of register ``name`` in a packed circuit state."""
    return state >> layout.offset(name) & ((1 << layout.n) - 1)


def ref_verify_point_add(circuit, curve, p2, exhaustive=False, samples=1000,
                         seed=0):
    """VerifyResult of checking each input in turn with ref_simulate; the
    inputs and failure texts are those of pointaddsynth."""
    from ecadd.ecoracle import (aldaoud_madd, affine_add, affine_equal,
                                ld_to_affine)
    from ecadd.pointaddsynth import (PointAddLayout, VerifyResult,
                                     _sampled_inputs, exhaustive_inputs)

    layout = PointAddLayout(curve.field.n)

    def check(p1):
        out = ref_simulate(circuit, layout.pack_inputs(
            p1.X.value, p1.Y.value, p1.Z.value))
        expect = aldaoud_madd(curve, p1, p2)
        tag = f"P1=({p1.X.value:#x},{p1.Y.value:#x},{p1.Z.value:#x})"
        for name, want in (("X1", p1.X.value), ("Y1", p1.Y.value),
                           ("Z1", p1.Z.value)):
            if read_register(layout, out, name) != want:
                return f"{tag}: input register {name} not restored"
        for name in ("C", "Bsq", "D", "Cp", "Z3p"):
            if read_register(layout, out, name) != 0:
                return f"{tag}: ancilla register {name} not cleared"
        got = [read_register(layout, out, r) for r in ("X3", "Y3", "Z3")]
        if got != [expect.X.value, expect.Y.value, expect.Z.value]:
            return f"{tag}: output differs from the mixed-addition formula"
        if not expect.is_infinity and not affine_equal(
                ld_to_affine(expect), affine_add(curve, ld_to_affine(p1), p2)):
            return f"{tag}: output disagrees with the affine group law"
        return None

    inputs = (exhaustive_inputs(curve, p2) if exhaustive
              else _sampled_inputs(curve, p2, samples, seed))
    cases = 0
    for p1 in inputs:
        fail = check(p1)
        cases += 1
        if fail:
            return VerifyResult(False, cases, fail)
    return VerifyResult(True, cases)


# ----------------------------------------------------------------------
# Fixtures
# ----------------------------------------------------------------------

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

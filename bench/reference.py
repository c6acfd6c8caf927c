"""Independent reference for checking ecadd's outputs.

Nothing here imports ecadd.  It holds:

* GF(2)[x] arithmetic on packed integers (bit i = coefficient of x^i) and
  the field F2^n = GF(2)[x]/(f);
* curve helpers for E: y^2 + xy = x^3 + a2 x^2 + a6, including the
  Lopez-Dahab mixed-addition formula in the textbook form of Al-Daoud et
  al. (2002) and the affine chord rule;
* the matrices of the linear blocks, their weight and max degree, and
  the closed-form resource figures of the 11n-wire construction;
* a .qc interpreter that expands subcircuit invocations, counts gates
  and simulates classical gates on packed integers, 64 inputs at a time
  (bit k of a wire's integer is that wire's value in input k).
"""

from __future__ import annotations

import re
from collections import Counter

# ----------------------------------------------------------------------
# GF(2)[x] and F2^n
# ----------------------------------------------------------------------


def pmul(a: int, b: int) -> int:
    """Carry-less product of two polynomials."""
    if a.bit_length() < b.bit_length():
        a, b = b, a
    out = 0
    while b:
        if b & 1:
            out ^= a
        a <<= 1
        b >>= 1
    return out


def pmod(a: int, f: int) -> int:
    """Remainder of a modulo f, by long division."""
    df = f.bit_length() - 1
    while a.bit_length() - 1 >= df:
        a ^= f << (a.bit_length() - 1 - df)
    return a


def pgcd(a: int, b: int) -> int:
    while b:
        a, b = b, pmod(a, b)
    return a


def parse_poly(text: str) -> int:
    """Packed integer of polynomial text such as "1+x^3+x^6+x^7+x^163"."""
    bits = 0
    for term in text.replace(" ", "").split("+"):
        e = 0 if term == "1" else 1 if term == "x" else int(term[2:])
        bits ^= 1 << e
    return bits


def poly_text(bits: int) -> str:
    terms = [i for i in range(bits.bit_length()) if bits >> i & 1]
    return "+".join("1" if e == 0 else "x" if e == 1 else f"x^{e}"
                    for e in terms)


class Field:
    """F2^n for an irreducible modulus f of degree n."""

    def __init__(self, f: int):
        self.f = f
        self.n = f.bit_length() - 1

    def mul(self, a: int, b: int) -> int:
        return pmod(pmul(a, b), self.f)

    def sqr(self, a: int) -> int:
        return self.mul(a, a)

    def inv(self, a: int) -> int:
        """Inverse by the extended Euclidean algorithm."""
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        r0, r1, s0, s1 = self.f, a, 0, 1
        while r1 != 1:
            shift = r0.bit_length() - r1.bit_length()
            if shift < 0:
                r0, r1, s0, s1 = r1, r0, s1, s0
                continue
            r0 ^= r1 << shift
            s0 ^= s1 << shift
        return pmod(s1, self.f)

    def solve_linear(self, image, c: int) -> int | None:
        """One z with L(z) = c for the GF(2)-linear map L given by its
        images of the basis x^i, or None when c is not in the image."""
        # Rows of the augmented system: low n bits = columns of L
        # transposed per output bit, bit n = right-hand side.
        n = self.n
        cols = [image(1 << i) for i in range(n)]
        rows = []
        for j in range(n):
            r = sum(1 << i for i in range(n) if cols[i] >> j & 1)
            rows.append(r | (c >> j & 1) << n)
        pivots = []
        for col in range(n):
            piv = next((k for k in range(len(pivots), n)
                        if rows[k] >> col & 1), None)
            if piv is None:
                continue
            top = len(pivots)
            rows[top], rows[piv] = rows[piv], rows[top]
            for k in range(n):
                if k != top and rows[k] >> col & 1:
                    rows[k] ^= rows[top]
            pivots.append(col)
        if any(r == 1 << n for r in rows):
            return None
        return sum((rows[k] >> n & 1) << col for k, col in enumerate(pivots))


def is_irreducible(f: int) -> bool:
    """Ben-Or test: gcd(x^(2^i) - x, f) = 1 for every i <= n/2."""
    n = f.bit_length() - 1
    if n < 1:
        return False
    t = 2
    for _ in range(n // 2):
        t = pmod(pmul(t, t), f)
        if pgcd(f, t ^ 2) != 1:
            return False
    return True


def first_irreducible(n: int) -> int:
    """The irreducible modulus of degree n with the smallest packed value."""
    return next(f for f in range((1 << n) | 1, 1 << (n + 1), 2)
                if is_irreducible(f))


# ----------------------------------------------------------------------
# Curves
# ----------------------------------------------------------------------


def on_curve(F: Field, a2: int, a6: int, x: int, y: int) -> bool:
    lhs = F.sqr(y) ^ F.mul(x, y)
    rhs = F.mul(F.sqr(x), x ^ a2) ^ a6
    return lhs == rhs


def random_point(F: Field, a2: int, a6: int, rng) -> tuple[int, int]:
    """A random affine point with x != 0: y = x z where z^2 + z = rhs/x^2."""
    while True:
        x = rng.getrandbits(F.n)
        if x == 0:
            continue
        rhs = F.mul(F.sqr(x), x ^ a2) ^ a6
        z = F.solve_linear(lambda v: F.sqr(v) ^ v, F.mul(rhs, F.inv(F.sqr(x))))
        if z is None:
            continue
        if rng.getrandbits(1):
            z ^= 1
        return x, F.mul(x, z)


def affine_points(F: Field, a2: int, a6: int) -> list[tuple[int, int]]:
    """Every affine point, by brute force (small n only)."""
    q = 1 << F.n
    return [(x, y) for x in range(q) for y in range(q)
            if on_curve(F, a2, a6, x, y)]


def ld_mixed_add(F: Field, a2: int, x2: int, y2: int,
                 X1: int, Y1: int, Z1: int) -> tuple[int, int, int]:
    """Lopez-Dahab mixed addition (Al-Daoud et al. 2002), generic case."""
    mul, sqr = F.mul, F.sqr
    A = mul(y2, sqr(Z1)) ^ Y1
    B = mul(x2, Z1) ^ X1
    C = mul(Z1, B)
    D = mul(sqr(B), C ^ mul(a2, sqr(Z1)))
    Z3 = sqr(C)
    E = mul(A, C)
    X3 = sqr(A) ^ D ^ E
    F_ = X3 ^ mul(x2, Z3)
    G = mul(x2 ^ y2, sqr(Z3))
    Y3 = mul(E ^ Z3, F_) ^ G
    return X3, Y3, Z3


def affine_add(F: Field, a2: int, p: tuple[int, int],
               q: tuple[int, int]) -> tuple[int, int]:
    """Chord rule for two affine points with different x."""
    (x1, y1), (x2, y2) = p, q
    lam = F.mul(y1 ^ y2, F.inv(x1 ^ x2))
    x3 = F.sqr(lam) ^ lam ^ x1 ^ x2 ^ a2
    return x3, F.mul(lam, x1 ^ x3) ^ x3 ^ y1


# ----------------------------------------------------------------------
# Linear blocks and closed forms
# ----------------------------------------------------------------------


def squaring_columns(F: Field) -> list[int]:
    """Column i of the squaring map: x^(2i) mod f."""
    return [pmod(1 << (2 * i), F.f) for i in range(F.n)]


def sqrt_columns(F: Field) -> list[int]:
    """Column i of the square-root map: sqrt(x)^i mod f, where
    sqrt(x) = x^(2^(n-1))."""
    s = 2
    for _ in range(F.n - 1):
        s = F.sqr(s)
    cols, cur = [], 1
    for _ in range(F.n):
        cols.append(cur)
        cur = F.mul(cur, s)
    return cols


def scaled_columns(F: Field, c: int, cols: list[int]) -> list[int]:
    """Columns of (multiplication by c) after the map given by cols."""
    return [F.mul(c, col) for col in cols]


def weight(cols: list[int]) -> int:
    return sum(c.bit_count() for c in cols)


def max_degree(cols: list[int]) -> int:
    """Largest row or column weight: the CNOT depth floor of the block."""
    if not any(cols):
        return 0
    rows = Counter(j for c in cols for j in range(c.bit_length()) if c >> j & 1)
    return max(max(c.bit_count() for c in cols), max(rows.values()))


def block_matrices(F: Field, a2: int, x2: int, y2: int) -> dict:
    """Columns of the linear map behind each block label of the circuit.

    A block whose constant is zero is empty (all-zero columns)."""
    identity = [1 << i for i in range(F.n)]
    sq = squaring_columns(F)
    m = {
        "SM": scaled_columns(F, y2, sq),
        "X": scaled_columns(F, x2, identity),
        "S": sq,
        "a2": scaled_columns(F, a2, identity),
        "xyZ": scaled_columns(F, x2 ^ y2, sq),
        "SR": sqrt_columns(F),
    }
    for label in ("X", "S", "SM", "a2"):
        m["I" + label] = m[label]
    return m


# Occurrences of each linear block in the 16-step circuit.
BLOCK_USES = {"SM": 1, "X": 2, "S": 3, "a2": 1, "xyZ": 1, "SR": 1,
              "IX": 2, "IS": 1, "ISM": 1, "Ia2": 1}
LINEAR_LABELS = tuple(BLOCK_USES)


def closed_form(n: int, modulus_weight: int, block_weights: dict) -> dict:
    """Resource figures of the construction for one field and point.

    Five multipliers of n^2 Toffolis and 2(n-1)(w-2) CNOTs each, eight
    n-CNOT register copies, and one CNOT per matrix entry in every linear
    block; a Toffoli expands to 7 T/T-dagger and 2 H gates."""
    toffoli = 5 * n * n
    return {
        "width": 11 * n,
        "toffoli": toffoli,
        "t_count": 7 * toffoli,
        "h": 2 * toffoli,
        "cnot": (sum(BLOCK_USES[k] * w for k, w in block_weights.items())
                 + 8 * n + 5 * 2 * (n - 1) * (modulus_weight - 2)),
        "prior_t_count": 13 * 7 * n * n,
    }


# ----------------------------------------------------------------------
# .qc interpreter
# ----------------------------------------------------------------------

GATE_NAMES = {"H": "h", "T": "t", "T*": "t_dagger", "S": "s", "S*": "s_dagger"}
TOF_NAMES = ("not", "cnot", "toffoli")
_WIRE_RE = re.compile(r"^([A-Za-z0-9]+)_(\d+)$")


class QcError(ValueError):
    pass


class QcProgram:
    """A parsed .qc file: wires, outputs and per-block gate counts, plus
    the gates themselves when ``keep_gates`` is set.

    Gates are (kind name, wire indices); the main block holds gates and
    the names of the subcircuits it invokes."""

    def __init__(self, lines, keep_gates: bool = True):
        self.wires: list[str] = []
        self.outputs: list[str] = []
        self.block_counts: dict = {}  # subcircuit name (None = main) -> Counter
        self.calls: list[str] = []    # invocations in the main block
        self.blocks: dict = {}        # name -> gate list, when kept
        index: dict[str, int] = {}
        name = gates = counts = None
        for raw in lines:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            tok = line.split()
            head = tok[0]
            if head == ".v":
                self.wires = tok[1:]
                index = {w: i for i, w in enumerate(self.wires)}
            elif head == ".o":
                self.outputs = tok[1:]
            elif head == ".i":
                pass
            elif head == "BEGIN":
                name = tok[1] if len(tok) > 1 else None
                gates, counts = [], Counter()
            elif head == "END":
                if counts is None:
                    raise QcError("END without BEGIN")
                self.block_counts[name] = counts
                if keep_gates:
                    self.blocks[name] = gates
                gates = counts = None
            elif counts is None:
                raise QcError(f"line outside a block: {line!r}")
            elif len(tok) == 1:
                if name is not None or tok[0] not in self.block_counts:
                    raise QcError(f"bad subcircuit invocation {tok[0]!r}")
                self.calls.append(tok[0])
                if keep_gates:
                    gates.append(tok[0])
            else:
                kind = (TOF_NAMES[len(tok) - 2] if head == "tof"
                        else GATE_NAMES[head])
                counts[kind] += 1
                if keep_gates:
                    gates.append((kind, tuple(index[w] for w in tok[1:])))
        if None not in self.block_counts:
            raise QcError("missing main block")

    @classmethod
    def read(cls, path, keep_gates: bool = True) -> "QcProgram":
        with open(path) as fh:
            return cls(fh, keep_gates)

    def counts(self) -> Counter:
        """Gate counts of the flattened circuit."""
        out = Counter(self.block_counts[None])
        for call in self.calls:
            out.update(self.block_counts[call])
        return out

    def gates(self):
        """Every gate of the flattened circuit, in order."""
        for item in self.blocks[None]:
            if isinstance(item, str):
                yield from self.blocks[item]
            else:
                yield item

    def registers(self) -> dict[str, list[int]]:
        """Wire indices of each register named ``<reg>_<bit>``."""
        regs: dict[str, dict[int, int]] = {}
        for i, w in enumerate(self.wires):
            m = _WIRE_RE.match(w)
            if not m:
                raise QcError(f"wire {w!r} is not named <register>_<bit>")
            regs.setdefault(m.group(1), {})[int(m.group(2))] = i
        return {r: [bits[b] for b in range(len(bits))]
                for r, bits in regs.items()}

    def simulate(self, values: list[int], lanes: int) -> list[int]:
        """Run every gate on packed wire values (``lanes`` inputs at once)."""
        v = list(values)
        full = (1 << lanes) - 1
        for kind, w in self.gates():
            if kind == "cnot":
                v[w[1]] ^= v[w[0]]
            elif kind == "toffoli":
                v[w[2]] ^= v[w[0]] & v[w[1]]
            elif kind == "not":
                v[w[0]] ^= full
            else:
                raise QcError(f"cannot simulate a {kind} gate")
        return v


def pack_register(v: list[int], wires: list[int], samples: list[int]):
    """Load one field element per lane into a register's wires."""
    for bit, w in enumerate(wires):
        v[w] = sum((s >> bit & 1) << k for k, s in enumerate(samples))


def unpack_register(v: list[int], wires: list[int], lanes: int) -> list[int]:
    return [sum((v[w] >> k & 1) << bit for bit, w in enumerate(wires))
            for k in range(lanes)]

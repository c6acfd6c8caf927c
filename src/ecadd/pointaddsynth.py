"""Synthesis of the fixed-point addition circuit in Lopez-Dahab coordinates.

Given a curve E_{a2,a6}(F2^n) and a fixed affine point P2 = (x2, y2), the
circuit maps

    |X1> |Y1> |Z1> |0...0>  ->  |X1> |Y1> |Z1> |X3> |Y3> |Z3> |0...0>

on 11n wires, where (X3, Y3, Z3) is the branch-free mixed-addition output
for the generic case O != P1 != +-P2.  The construction uses five modular
multiplier invocations (the only Toffoli-bearing blocks) plus linear CNOT
blocks, and uncomputes every ancilla register.

Register layout (wire i of register k sits at wire id k*n + i):

    X1 Y1 Z1 | C Z3 X3 Bsq D Cp Z3p Y3

Fused linear blocks carry the labels used in circuit renderings: SM
(y2 * square), X (times x2), M (multiplier), S (square), a2 (times a2),
xyZ ((x2+y2) * square), SR (square root), and I-prefixed reversals.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field as dc_field, replace
from functools import lru_cache
from itertools import islice

from .circuit_ir import (
    Circuit,
    ResourceReport,
    decompose_toffoli,  # not called here; bench/tracer.py wraps it at this site
    metrics,
    reversed_runs,
)
from .ecoracle import (
    EXHAUSTIVE_MAX_N,
    AffinePoint,
    Curve,
    affine_add,
    affine_equal,
    affine_to_ld,
    aldaoud_madd,
    all_affine_points,
    ld_to_affine,
    negate,
    on_curve_affine,
    on_curve_ld,  # not called here; bench/tracer.py wraps it at this site
    random_point,
)
from .fieldsynth import (
    add_register,
    cnot_orders,
    standalone_multiplier,
    synth_add_inplace,
    synth_linear,
    synth_mult,
)
from .gf2field import IrreduciblePoly
from .linmaps import (
    BinMatrix,
    matrix_of_const_mul,
    matrix_of_sqrt,
    matrix_of_squaring,
)
from .revsim import Simulator, to_lanes

# Cases per simulator pass in verification (lane k is case k of a chunk);
# fixed, so memory does not grow with the sample count.
VERIFY_CHUNK = 128

REGISTER_ORDER = ("X1", "Y1", "Z1", "C", "Z3", "X3", "Bsq", "D", "Cp", "Z3p", "Y3")


class SynthesisError(ValueError):
    """Invalid synthesis or verification input."""


class OffCurveError(SynthesisError):
    """The fixed point P2 does not satisfy the curve equation."""


class BoundViolation(AssertionError):
    """A measured resource figure exceeded its guaranteed bound."""


@dataclass(frozen=True)
class PointAddLayout:
    """Register map of a synthesized point-addition circuit."""

    n: int

    def offset(self, name: str) -> int:
        return REGISTER_ORDER.index(name) * self.n

    def pack_inputs(self, x1: int, y1: int, z1: int) -> int:
        n = self.n
        return x1 | y1 << n | z1 << (2 * n)


@lru_cache(maxsize=8)
def multiplier_report(field: IrreduciblePoly) -> ResourceReport:
    """Measured cost of one standalone modular multiplier for this field."""
    return metrics(standalone_multiplier(field))


@lru_cache(maxsize=8)
def _squaring(field: IrreduciblePoly) -> BinMatrix:
    """The squaring matrix, which emission and the bounds both read."""
    return matrix_of_squaring(field)


def _linear_block(circuit, label, matrix, src, dst) -> tuple:
    """Emit one labeled linear block (an empty group for a zero matrix)
    and return its runs."""
    with circuit.group(label):
        return synth_linear(circuit, matrix, src, dst).runs


def _replay(circuit, label, runs):
    """Emit a labeled block of the given runs (the same run objects)."""
    with circuit.group(label):
        circuit.add_runs(runs)


def synth_point_add(curve: Curve, p2: AffinePoint, *,
                    allow_off_curve: bool = False
                    ) -> tuple[Circuit, ResourceReport]:
    """Build the full 16-step addition circuit and its resource report
    (``emit_point_add``, then ``score_point_add``)."""
    circuit, _ = emit_point_add(curve, p2, allow_off_curve=allow_off_curve)
    return circuit, score_point_add(circuit, curve.field)


def emit_point_add(curve: Curve, p2: AffinePoint, *,
                   allow_off_curve: bool = False) -> tuple[Circuit, int]:
    """Build the full 16-step addition circuit, and return it with the
    coloring work of its linear blocks (``fieldsynth.cnot_orders``).

    The circuit is at the Toffoli level.  To write it at the Clifford+T
    level, ``qcformat.write_qc(circuit, clifford_t=True)`` expands each
    Toffoli as it writes it.

    The CNOT orders of the six distinct linear maps are worked out
    before the first block is emitted, split over two processes when
    there is enough work.  Each reversal block replays the runs of its
    forward block: IM replays the step-7 product's runs reversed, as
    views of the same columns, and ISM, IX, IS and Ia2 replay SM, X, S
    and a2 as they are, since a linear block's CNOTs commute and it is
    its own inverse.  The replayed blocks share the forward blocks' run
    objects.
    """
    if p2.is_infinity:
        raise SynthesisError("the fixed point P2 must be affine (not O)")
    if p2.x.field.bits != curve.field.bits:
        raise SynthesisError("P2 does not live over the curve's field")
    if not allow_off_curve and not on_curve_affine(curve, p2):
        raise OffCurveError("P2 is not on the curve")

    fld = curve.field
    n = fld.n
    x2, y2, a2 = p2.x, p2.y, curve.a2

    m_sq = _squaring(fld)
    m_sqrt = matrix_of_sqrt(fld)
    m_x2 = matrix_of_const_mul(x2)
    m_sm = matrix_of_const_mul(y2) @ m_sq
    m_xyz = matrix_of_const_mul(x2 + y2) @ m_sq
    m_a2 = matrix_of_const_mul(a2)
    work = cnot_orders((m_sm, m_x2, m_sq, m_a2, m_xyz, m_sqrt))

    c = Circuit()
    regs = {name: add_register(c, name, n) for name in REGISTER_ORDER}
    rx1, ry1, rz1 = regs["X1"], regs["Y1"], regs["Z1"]
    rc, rz3, rx3 = regs["C"], regs["Z3"], regs["X3"]
    rbsq, rd, rcp = regs["Bsq"], regs["D"], regs["Cp"]
    rz3p, ry3 = regs["Z3p"], regs["Y3"]

    # 1: Y1 <- A = Y1 + y2 * Z1^2
    sm_runs = _linear_block(c, "SM", m_sm, rz1, ry1)
    # 2: X1 <- B = X1 + x2 * Z1
    xz1_runs = _linear_block(c, "X", m_x2, rz1, rx1)
    # 3: C <- B * Z1
    with c.group("M"):
        synth_mult(c, fld, rx1, rz1, rc)
    # 4: Z3 <- C^2, X3 <- A^2, Bsq <- B^2
    _linear_block(c, "S", m_sq, rc, rz3)
    _linear_block(c, "S", m_sq, ry1, rx3)
    sb_runs = _linear_block(c, "S", m_sq, rx1, rbsq)
    # 5: Bsq += a2 * C;  D <- x2 * Z3
    a2_runs = _linear_block(c, "a2", m_a2, rc, rbsq)
    xz3_runs = _linear_block(c, "X", m_x2, rz3, rd)
    # 6: Bsq += A;  Cp <- C;  Z3p <- Z3
    synth_add_inplace(c, ry1, rbsq)
    synth_add_inplace(c, rc, rcp)
    synth_add_inplace(c, rz3, rz3p)
    # 7: X3 += C * Bsq;  Z3p += A * Cp;  Y3 <- (x2+y2) * Z3^2
    with c.group("M"):
        synth_mult(c, fld, rc, rbsq, rx3)
    with c.group("M"):
        acp_runs = synth_mult(c, fld, ry1, rcp, rz3p).runs
    _linear_block(c, "xyZ", m_xyz, rz3, ry3)
    # 8: D += X3
    synth_add_inplace(c, rx3, rd)
    # 9: Y3 += (D + X3) * (A*C + Z3)
    with c.group("M"):
        synth_mult(c, fld, rd, rz3p, ry3)
    # 10: D += X3  (restores D = x2 * Z3)
    synth_add_inplace(c, rx3, rd)
    # 11: uncompute Z3p += A * Cp
    _replay(c, "IM", reversed_runs(acp_runs))
    # 12: reverse step 6
    synth_add_inplace(c, ry1, rbsq)
    synth_add_inplace(c, rc, rcp)
    synth_add_inplace(c, rz3, rz3p)
    # 13: reverse step 5
    _replay(c, "IX", xz3_runs)
    _replay(c, "Ia2", a2_runs)
    # 14: reverse the B squaring; C += sqrt(Z3) clears C.
    # (The A^2 share of step 4 is part of the output X3 and must stay.)
    _replay(c, "IS", sb_runs)
    _linear_block(c, "SR", m_sqrt, rz3, rc)
    # 15: reverse step 2
    _replay(c, "IX", xz1_runs)
    # 16: reverse step 1
    _replay(c, "ISM", sm_runs)
    return c, work


def score_point_add(circuit: Circuit,
                    field: IrreduciblePoly) -> ResourceReport:
    """The resource report of a point-addition circuit over ``field``:
    its metrics, with the T figures and the decomposed counts of its
    Clifford+T form, and its bounds checked (``check_bounds``)."""
    report = metrics(circuit)
    m_sq = _squaring(field)
    bounds = check_bounds(report, field.n, multiplier_report(field),
                          m_sq.weight, m_sq.max_degree)
    return replace(report, bounds=bounds)


def check_bounds(report: ResourceReport, n: int,
                 mult_report: ResourceReport, g_s: int, d_s: int) -> dict:
    """Compare a point-addition report against its guaranteed bounds.

    All bounds are stated at the Toffoli level except the T figures,
    which are the Clifford+T (block-accounted) values; T-count and width
    must match their formulas exactly, the rest must not be exceeded.
    Returns {name: {"bound": b, "achieved": a}} and raises
    :class:`BoundViolation` on any failure.
    """
    g_m = mult_report.total_gates
    d_m = mult_report.depth

    entries = {
        "t_count": (5 * mult_report.t_count, report.t_count, "eq"),
        "total_gates": (5 * g_m + 5 * g_s + 10 * n * n - 2 * n + 10,
                        report.total_gates, "le"),
        "t_depth": (4 * mult_report.t_depth, report.t_depth, "le"),
        "depth": (3 * d_m + max(d_m, n) + d_s + 7 * n + 4,
                  report.depth, "le"),
        "width": (11 * n, report.width, "eq"),
    }
    out = {}
    for name, (bound, achieved, mode) in entries.items():
        ok = achieved == bound if mode == "eq" else achieved <= bound
        if not ok:
            raise BoundViolation(
                f"{name}: achieved {achieved} vs bound {bound}"
            )
        out[name] = {"bound": bound, "achieved": achieved}
    return out


# ----------------------------------------------------------------------
# Verification against the classical oracle
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class VerifyResult:
    ok: bool
    cases: int
    failure: str = dc_field(default=None)


# The register checks of a case, in the order they are reported: the
# first register that differs in a failing lane names the failure.
_REGISTER_CHECKS = (
    (("X1", "Y1", "Z1"), "input register {} not restored"),
    (("C", "Bsq", "D", "Cp", "Z3p"), "ancilla register {} not cleared"),
    (("X3", "Y3", "Z3"), "output differs from the mixed-addition formula"),
)


def _check_chunk(sim: Simulator, layout: PointAddLayout, curve: Curve,
                 p2: AffinePoint, chunk: list) -> tuple[int, str] | None:
    """(index, failure) of the first failing case in ``chunk``, found
    with one lane pass; None when every case passes.

    A lane fails a register check iff it differs from the state that
    holds its inputs, clear ancillas and the oracle's X3, Y3, Z3; where
    it passes them, its output is the oracle's, whose group law is
    checked per case."""
    oz, ox, oy = (layout.offset(r) for r in ("Z3", "X3", "Y3"))
    inputs, wants = [], []
    bad = 0
    for k, p1 in enumerate(chunk):
        state = layout.pack_inputs(p1.X.value, p1.Y.value, p1.Z.value)
        expect = aldaoud_madd(curve, p1, p2)
        inputs.append(state)
        wants.append(state | expect.Z.value << oz | expect.X.value << ox
                     | expect.Y.value << oy)
        # P3 = P1 + P2 under the complete affine law, or P3 = O.
        if not expect.is_infinity and not affine_equal(
                ld_to_affine(expect), affine_add(curve, ld_to_affine(p1), p2)):
            bad |= 1 << k
    width = sim.width
    got = sim.run_lanes(to_lanes(inputs, width), (1 << len(chunk)) - 1)
    diffs = [g ^ w for g, w in zip(got, to_lanes(wants, width))]
    for d in diffs:
        bad |= d
    if not bad:
        return None
    k = (bad & -bad).bit_length() - 1
    p1 = chunk[k]
    tag = f"P1=({p1.X.value:#x},{p1.Y.value:#x},{p1.Z.value:#x})"
    n = layout.n
    for names, text in _REGISTER_CHECKS:
        for name in names:
            o = layout.offset(name)
            if any(d >> k & 1 for d in diffs[o:o + n]):
                return k, f"{tag}: {text.format(name)}"
    return k, f"{tag}: output disagrees with the affine group law"


def _generic(p1_affine: AffinePoint, p2: AffinePoint) -> bool:
    return not (p1_affine.is_infinity
                or affine_equal(p1_affine, p2)
                or affine_equal(p1_affine, negate(p2)))


def exhaustive_inputs(curve: Curve, p2: AffinePoint):
    """Every on-curve Lopez-Dahab input in the generic case: each affine
    point P1 other than P2 and -P2, times each lambda != 0."""
    fld = curve.field
    lams = [fld.elem(v) for v in range(1, 1 << fld.n)]
    for pa in all_affine_points(curve):
        if _generic(pa, p2):
            for lam in lams:
                yield affine_to_ld(pa, lam)


def _sampled_inputs(curve: Curve, p2: AffinePoint, samples: int, seed: int):
    """``samples`` seeded random generic-case inputs: a random affine
    point times a random lambda != 0."""
    fld = curve.field
    rng = random.Random(seed)
    drawn = attempts = 0
    while drawn < samples:
        attempts += 1
        if attempts > 100 * samples + 100:
            raise SynthesisError(
                "could not sample enough generic-case points on this curve"
            )
        pa = random_point(curve, rng)
        if not _generic(pa, p2):
            continue
        lam = fld.elem(rng.getrandbits(fld.n))
        if lam.value == 0:
            continue
        drawn += 1
        yield affine_to_ld(pa, lam)


def verify_point_add(circuit: Circuit, curve: Curve, p2: AffinePoint,
                     exhaustive: bool = False, samples: int = 1000,
                     seed: int = 0) -> VerifyResult:
    """Check a synthesized circuit against the classical oracle.

    Exhaustive mode sweeps every on-curve Lopez-Dahab representative that
    satisfies the generic-case precondition, about 4^n cases, for
    n <= EXHAUSTIVE_MAX_N; otherwise ``samples`` seeded random
    representatives are drawn.  P2 must lie on the curve.  Cases run
    through the circuit VERIFY_CHUNK at a time, one per lane; the result
    names the first failing case in input order.
    """
    if not exhaustive and samples < 1:
        raise SynthesisError(f"sample count must be at least 1, got {samples}")
    n = curve.field.n
    if exhaustive and n > EXHAUSTIVE_MAX_N:
        raise SynthesisError(
            f"exhaustive verification is limited to n <= {EXHAUSTIVE_MAX_N}")
    layout = PointAddLayout(n)
    if circuit.width != 11 * n:
        raise SynthesisError("circuit width does not match an 11n-wire layout")
    # Neither check of a case reads a6, so off the curve they would pass
    # without saying anything about the group law.
    if not on_curve_affine(curve, p2):
        raise OffCurveError("P2 is not on the curve")
    sim = Simulator(circuit)
    inputs = (exhaustive_inputs(curve, p2) if exhaustive
              else _sampled_inputs(curve, p2, samples, seed))
    cases = 0
    while chunk := list(islice(inputs, VERIFY_CHUNK)):
        fail = _check_chunk(sim, layout, curve, p2, chunk)
        if fail:
            return VerifyResult(False, cases + fail[0] + 1, fail[1])
        cases += len(chunk)
    if cases == 0:
        raise SynthesisError(
            "no generic-case input to verify: every affine point of the "
            "curve is P2 or -P2")
    return VerifyResult(True, cases)

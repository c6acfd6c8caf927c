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

from .circuit_ir import (
    CNOT,
    Circuit,
    ResourceReport,
    decompose_toffoli,  # not called here; bench/tracer.py wraps it at this site
    metrics,
)
from .ecoracle import (
    AffinePoint,
    Curve,
    LDPoint,
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
    RegisterRef,
    add_register,
    linear_layers,
    synth_add_inplace,
    synth_linear,
    synth_mult,
)
from .gf2field import FieldElem, IrreduciblePoly
from .linmaps import matrix_of_const_mul, matrix_of_sqrt, matrix_of_squaring
from .revsim import Simulator

# The largest n for exhaustive verification: n = 8 checks 72,675 cases in
# about 20 s, n = 9 checks 263,165 in about 77 s.  It is also the limit of
# ecoracle.all_affine_points, which lists the points.
EXHAUSTIVE_MAX_N = 8

REGISTER_ORDER = ("X1", "Y1", "Z1", "C", "Z3", "X3", "Bsq", "D", "Cp", "Z3p", "Y3")


class SynthesisError(ValueError):
    """Invalid synthesis input or configuration."""


class BoundViolation(AssertionError):
    """A measured resource figure exceeded its guaranteed bound."""


@dataclass(frozen=True)
class SynthesisOptions:
    skip_a2_block_when_trivial: bool = True
    allow_off_curve: bool = False
    multiplier_variant: str = "maslov_shift"


@dataclass(frozen=True)
class PointAddLayout:
    """Register map of a synthesized point-addition circuit."""

    n: int
    registers: dict

    def offset(self, name: str) -> int:
        return REGISTER_ORDER.index(name) * self.n

    def extract(self, state: int, name: str) -> int:
        return state >> self.offset(name) & ((1 << self.n) - 1)

    def pack_inputs(self, x1: int, y1: int, z1: int) -> int:
        n = self.n
        return x1 | y1 << n | z1 << (2 * n)


def layout_for(n: int) -> PointAddLayout:
    return PointAddLayout(n, {name: i * n for i, name in enumerate(REGISTER_ORDER)})


@lru_cache(maxsize=8)
def multiplier_report(field: IrreduciblePoly) -> ResourceReport:
    """Measured cost of one standalone modular multiplier for this field."""
    from .fieldsynth import standalone_multiplier

    return metrics(standalone_multiplier(field))


def _linear_block(circuit, label, matrix, src, dst, layers):
    """Emit one labeled linear block; a None matrix means the constant was
    zero and the block is the identity (kept as an empty group)."""
    with circuit.group(label):
        if matrix is not None:
            synth_linear(circuit, matrix, src, dst, layers)


def synth_point_add(curve: Curve, p2: AffinePoint,
                    opts: SynthesisOptions | None = None
                    ) -> tuple[Circuit, ResourceReport]:
    """Build the full 16-step addition circuit and its resource report.

    The circuit is at the Toffoli level; the report describes it, with
    exact decomposed Clifford+T figures alongside.  To write it at the
    Clifford+T level, ``qcformat.write_qc(circuit, clifford_t=True)``
    expands each Toffoli as it writes it.
    """
    opts = opts or SynthesisOptions()
    if opts.multiplier_variant != "maslov_shift":
        raise SynthesisError(
            f"unknown multiplier variant {opts.multiplier_variant!r}"
        )
    if p2.is_infinity:
        raise SynthesisError("the fixed point P2 must be affine (not O)")
    if p2.x.field.poly.bits != curve.field.poly.bits:
        raise SynthesisError("P2 does not live over the curve's field")
    if not opts.allow_off_curve and not on_curve_affine(curve, p2):
        raise SynthesisError(
            "P2 is not on the curve (pass allow_off_curve to synthesize anyway)"
        )

    fld = curve.field
    n = fld.n
    x2, y2, a2 = p2.x, p2.y, curve.a2
    one = fld.one()

    m_sq = matrix_of_squaring(fld)
    m_sqrt = matrix_of_sqrt(fld)
    m_x2 = matrix_of_const_mul(x2) if x2.value else None
    m_sm = matrix_of_const_mul(y2) @ m_sq if y2.value else None
    xy = x2 + y2
    m_xyz = matrix_of_const_mul(xy) @ m_sq if xy.value else None
    if a2.value == 0:
        m_a2 = None
    elif a2.value == 1 and opts.skip_a2_block_when_trivial:
        m_a2 = "copy"  # degenerates to n parallel CNOTs
    else:
        m_a2 = matrix_of_const_mul(a2)

    # Edge colorings, computed once per distinct matrix.
    lay_sq = linear_layers(m_sq)
    lay_sqrt = linear_layers(m_sqrt)
    lay_x2 = linear_layers(m_x2) if m_x2 is not None else None
    lay_sm = linear_layers(m_sm) if m_sm is not None else None
    lay_xyz = linear_layers(m_xyz) if m_xyz is not None else None
    lay_a2 = (linear_layers(m_a2)
              if m_a2 is not None and m_a2 != "copy" else None)

    c = Circuit()
    regs = {name: add_register(c, name, n) for name in REGISTER_ORDER}
    rx1, ry1, rz1 = regs["X1"], regs["Y1"], regs["Z1"]
    rc, rz3, rx3 = regs["C"], regs["Z3"], regs["X3"]
    rbsq, rd, rcp = regs["Bsq"], regs["D"], regs["Cp"]
    rz3p, ry3 = regs["Z3p"], regs["Y3"]

    def a2_block(label):
        with c.group(label):
            if m_a2 == "copy":
                synth_add_inplace(c, rc, rbsq)
            elif m_a2 is not None:
                synth_linear(c, m_a2, rc, rbsq, lay_a2)

    # 1: Y1 <- A = Y1 + y2 * Z1^2
    _linear_block(c, "SM", m_sm, rz1, ry1, lay_sm)
    # 2: X1 <- B = X1 + x2 * Z1
    _linear_block(c, "X", m_x2, rz1, rx1, lay_x2)
    # 3: C <- B * Z1
    with c.group("M"):
        synth_mult(c, fld, rx1, rz1, rc)
    # 4: Z3 <- C^2, X3 <- A^2, Bsq <- B^2
    _linear_block(c, "S", m_sq, rc, rz3, lay_sq)
    _linear_block(c, "S", m_sq, ry1, rx3, lay_sq)
    _linear_block(c, "S", m_sq, rx1, rbsq, lay_sq)
    # 5: Bsq += a2 * C;  D <- x2 * Z3
    a2_block("a2")
    _linear_block(c, "X", m_x2, rz3, rd, lay_x2)
    # 6: Bsq += A;  Cp <- C;  Z3p <- Z3
    synth_add_inplace(c, ry1, rbsq)
    synth_add_inplace(c, rc, rcp)
    synth_add_inplace(c, rz3, rz3p)
    # 7: X3 += C * Bsq;  Z3p += A * Cp;  Y3 <- (x2+y2) * Z3^2
    with c.group("M"):
        synth_mult(c, fld, rc, rbsq, rx3)
    with c.group("M"):
        acp_gates = synth_mult(c, fld, ry1, rcp, rz3p)
    _linear_block(c, "xyZ", m_xyz, rz3, ry3, lay_xyz)
    # 8: D += X3
    synth_add_inplace(c, rx3, rd)
    # 9: Y3 += (D + X3) * (A*C + Z3)
    with c.group("M"):
        synth_mult(c, fld, rd, rz3p, ry3)
    # 10: D += X3  (restores D = x2 * Z3)
    synth_add_inplace(c, rx3, rd)
    # 11: uncompute Z3p += A * Cp
    with c.group("IM"):
        c.extend_raw(reversed(acp_gates))
    # 12: reverse step 6
    synth_add_inplace(c, ry1, rbsq)
    synth_add_inplace(c, rc, rcp)
    synth_add_inplace(c, rz3, rz3p)
    # 13: reverse step 5
    _linear_block(c, "IX", m_x2, rz3, rd, lay_x2)
    a2_block("Ia2")
    # 14: reverse the B squaring; C += sqrt(Z3) clears C.
    # (The A^2 share of step 4 is part of the output X3 and must stay.)
    _linear_block(c, "IS", m_sq, rx1, rbsq, lay_sq)
    _linear_block(c, "SR", m_sqrt, rz3, rc, lay_sqrt)
    # 15: reverse step 2
    _linear_block(c, "IX", m_x2, rz1, rx1, lay_x2)
    # 16: reverse step 1
    _linear_block(c, "ISM", m_sm, rz1, ry1, lay_sm)

    c.check_closed()
    report = metrics(c)
    g_s = m_sq.weight
    d_s = m_sq.max_degree
    bounds = check_bounds(report, n, multiplier_report(fld), g_s, d_s)
    report = replace(report, bounds=bounds)
    return c, report


def check_bounds(report: ResourceReport, n: int,
                 mult_report: ResourceReport, g_s: int, d_s: int) -> dict:
    """Compare a point-addition report against its guaranteed bounds.

    All bounds are stated at the Toffoli level except the T figures,
    which use the decomposed (block-accounted) values; T-count and width
    must match their formulas exactly, the rest must not be exceeded.
    Returns {name: {"bound": b, "achieved": a}} and raises
    :class:`BoundViolation` on any failure.
    """
    g_m = mult_report.total_gates
    d_m = mult_report.depth
    g_mt = mult_report.decomposed.t_count
    d_mt = mult_report.decomposed.t_depth

    entries = {
        "t_count": (5 * g_mt, report.decomposed.t_count, "eq"),
        "total_gates": (5 * g_m + 5 * g_s + 10 * n * n - 2 * n + 10,
                        report.total_gates, "le"),
        "t_depth": (4 * d_mt, report.decomposed.t_depth, "le"),
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


def _check_case(sim: Simulator, layout: PointAddLayout, curve: Curve,
                p2: AffinePoint, p1: LDPoint, cross_check: bool) -> str | None:
    """Run one input through the circuit; return a failure description or
    None.  ``cross_check`` additionally compares against the complete
    affine group law."""
    fld = curve.field
    state = layout.pack_inputs(p1.X.value, p1.Y.value, p1.Z.value)
    out = sim.run(state)
    expect = aldaoud_madd(curve, p1, p2, checked=False)

    tag = f"P1=({p1.X.value:#x},{p1.Y.value:#x},{p1.Z.value:#x})"
    for name, want in (("X1", p1.X.value), ("Y1", p1.Y.value),
                       ("Z1", p1.Z.value)):
        if layout.extract(out, name) != want:
            return f"{tag}: input register {name} not restored"
    for name in ("C", "Bsq", "D", "Cp", "Z3p"):
        if layout.extract(out, name) != 0:
            return f"{tag}: ancilla register {name} not cleared"
    got = LDPoint(fld.elem(layout.extract(out, "X3")),
                  fld.elem(layout.extract(out, "Y3")),
                  fld.elem(layout.extract(out, "Z3")))
    if (got.X.value, got.Y.value, got.Z.value) != \
       (expect.X.value, expect.Y.value, expect.Z.value):
        return f"{tag}: output differs from the mixed-addition formula"
    if cross_check and not got.is_infinity:
        want_affine = affine_add(curve, ld_to_affine(p1), p2)
        if not affine_equal(ld_to_affine(got), want_affine):
            return f"{tag}: output disagrees with the affine group law"
    return None


def _generic(curve: Curve, p1_affine: AffinePoint, p2: AffinePoint) -> bool:
    return not (p1_affine.is_infinity
                or affine_equal(p1_affine, p2)
                or affine_equal(p1_affine, negate(p2)))


def exhaustive_inputs(curve: Curve, p2: AffinePoint):
    """Every on-curve Lopez-Dahab input in the generic case: each affine
    point P1 other than P2 and -P2, times each lambda != 0."""
    fld = curve.field
    lams = [fld.elem(v) for v in range(1, 1 << fld.n)]
    for pa in all_affine_points(curve):
        if _generic(curve, pa, p2):
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
        if not _generic(curve, pa, p2):
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
    representatives are drawn.
    """
    if not exhaustive and samples < 1:
        raise SynthesisError(f"sample count must be at least 1, got {samples}")
    n = curve.field.n
    if exhaustive and n > EXHAUSTIVE_MAX_N:
        raise SynthesisError(
            f"exhaustive verification is limited to n <= {EXHAUSTIVE_MAX_N}")
    layout = layout_for(n)
    if circuit.width != 11 * n:
        raise SynthesisError("circuit width does not match an 11n-wire layout")
    sim = Simulator(circuit)
    inputs = (exhaustive_inputs(curve, p2) if exhaustive
              else _sampled_inputs(curve, p2, samples, seed))
    cases = 0
    for p1 in inputs:
        fail = _check_case(sim, layout, curve, p2, p1, True)
        cases += 1
        if fail:
            return VerifyResult(False, cases, fail)
    return VerifyResult(True, cases)

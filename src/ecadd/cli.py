"""Command-line front end.

Subcommands:

* ``synth``  -- build the point-addition circuit for a curve and fixed
  point, writing ``<out>.qc`` and ``<out>.report.json``;
* ``tables`` -- depth / CNOT-count tables of the squaring and square-root
  maps for the five named DSS/NIST binary fields;
* ``verify`` -- simulate a freshly synthesized circuit against the
  classical curve oracle, exhaustively or on seeded samples.

Exit codes: 0 ok, 1 validation error, 2 verification failure, 3 internal
invariant violation.  ``ECADD_SEED`` provides the default seed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass

from .ecoracle import AffinePoint, Curve, PointError
from .gf2field import IrreduciblePoly, parse_element_text
from .linmaps import matrix_of_sqrt, matrix_of_squaring
from .pointaddsynth import (
    EXHAUSTIVE_MAX_N,
    BoundViolation,
    SynthesisError,
    SynthesisOptions,
    multiplier_report,
    synth_point_add,
    verify_point_add,
)
from .qcformat import write_qc

# The five binary fields named in the Digital Signature Standard.
NIST_POLYS = (
    ("B163", "1+x^3+x^6+x^7+x^163"),
    ("B233", "1+x^74+x^233"),
    ("B283", "1+x^5+x^7+x^12+x^283"),
    ("B409", "1+x^87+x^409"),
    ("B571", "1+x^2+x^5+x^10+x^571"),
)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_VERIFY_FAIL = 2
EXIT_INTERNAL = 3


class ValidationError(ValueError):
    pass


@dataclass
class JobSpec:
    field: IrreduciblePoly
    curve: Curve
    p2: AffinePoint
    options: SynthesisOptions


def _default_seed() -> int:
    try:
        return int(os.environ.get("ECADD_SEED", "0"))
    except ValueError:
        return 0


def _parse_field(poly_text: str) -> IrreduciblePoly:
    try:
        return IrreduciblePoly.from_string(poly_text)
    except ValueError as exc:
        raise ValidationError(f"bad --poly: {exc}") from exc


def _job_from_args(args) -> JobSpec:
    fld = _parse_field(args.poly)

    def elem(flag: str, text: str):
        try:
            v = parse_element_text(text)
        except ValueError as exc:
            raise ValidationError(f"bad {flag}: {exc}") from exc
        if v >> fld.n:
            raise ValidationError(f"{flag} does not fit in a degree-{fld.n} field")
        return fld.elem(v)

    try:
        curve = Curve(elem("--a2", args.a2), elem("--a6", args.a6))
    except PointError as exc:
        raise ValidationError(str(exc)) from exc
    p2 = AffinePoint(elem("--x2", args.x2), elem("--y2", args.y2))
    opts = SynthesisOptions(allow_off_curve=args.allow_off_curve)
    return JobSpec(fld, curve, p2, opts)


def report_to_json(job: JobSpec, report) -> dict:
    """Stable-ordered JSON payload for a synthesis report."""
    mult = multiplier_report(job.field)
    g_mt = mult.decomposed.t_count
    d_mt = mult.decomposed.t_depth
    return {
        "schema": 1,
        "n": job.field.n,
        "poly": str(job.field),
        "multiplier_variant": job.options.multiplier_variant,
        "counts": report.counts,
        "toffoli_count": report.toffoli_count,
        "t_count": report.decomposed.t_count,
        "depth": report.depth,
        "t_depth": report.decomposed.t_depth,
        "width": report.width,
        "subcircuits": [
            {"label": s.label, "counts": s.counts, "depth": s.depth}
            for s in report.subcircuits
        ],
        "bounds": report.bounds,
        "decomposed": {
            "counts": report.decomposed.counts,
            "total_gates": report.decomposed.total_gates,
            "t_count": report.decomposed.t_count,
            "depth": report.decomposed.depth,
            "t_depth": report.decomposed.t_depth,
        },
        "prior_reference": {
            # Literature formulas for the earlier 13-multiplication
            # construction, evaluated with this field's multiplier cost.
            "t_count": 13 * g_mt,
            "t_depth": 4 * d_mt,
        },
    }


def _write_file(path: str, text: str):
    """Write ``text`` to ``path``; a path that cannot be written to is a
    validation error."""
    try:
        with open(path, "w", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc.strerror or exc}") from exc


def cmd_synth(args) -> int:
    job = _job_from_args(args)
    try:
        circuit, report = synth_point_add(job.curve, job.p2, job.options)
    except SynthesisError as exc:
        raise ValidationError(str(exc)) from exc
    out = args.out
    base = out[:-3] if out.endswith(".qc") else out
    qc_path = base + ".qc"
    report_path = base + ".report.json"
    _write_file(qc_path, write_qc(circuit, clifford_t=args.decompose))
    _write_file(report_path,
                json.dumps(report_to_json(job, report), indent=2) + "\n")
    print(f"wrote {qc_path} and {report_path}")
    return EXIT_OK


def tables_rows(kind: str) -> list[dict]:
    rows = []
    for name, poly_text in NIST_POLYS:
        fld = IrreduciblePoly.from_string(poly_text)
        m = matrix_of_squaring(fld) if kind == "squaring" else matrix_of_sqrt(fld)
        rows.append({
            "name": name,
            "poly": poly_text,
            "depth": m.max_degree,
            "cnots": m.weight,
        })
    return rows


def format_table(kind: str, rows) -> str:
    head = f"{'irreducible polynomial':<24} {'depth':>6} {'CNOT gates':>11}"
    lines = [f"{kind} circuits for the DSS binary fields", head,
             "-" * len(head)]
    for r in rows:
        lines.append(f"{r['poly']:<24} {r['depth']:>6} {r['cnots']:>11}")
    return "\n".join(lines) + "\n"


def cmd_tables(args) -> int:
    if not args.nist:
        raise ValidationError("tables currently requires --nist (built-in presets)")
    rows = tables_rows(args.kind)
    sys.stdout.write(format_table(args.kind, rows))
    if args.json:
        _write_file(args.json, json.dumps(
            {"schema": 1, "kind": args.kind, "rows": rows}, indent=2) + "\n")
    return EXIT_OK


def cmd_verify(args) -> int:
    if not args.exhaustive and args.samples < 1:
        raise ValidationError(f"--samples must be at least 1, got {args.samples}")
    job = _job_from_args(args)
    if job.field.n > 20:
        raise ValidationError("verification is limited to n <= 20")
    if args.exhaustive and job.field.n > EXHAUSTIVE_MAX_N:
        raise ValidationError(
            f"exhaustive verification is limited to n <= {EXHAUSTIVE_MAX_N}")
    try:
        circuit, _ = synth_point_add(job.curve, job.p2, job.options)
        result = verify_point_add(
            circuit, job.curve, job.p2,
            exhaustive=args.exhaustive,
            samples=args.samples,
            seed=args.seed,
        )
    except SynthesisError as exc:
        raise ValidationError(str(exc)) from exc
    if result.ok:
        print(f"PASS: {result.cases} cases match the oracle")
        return EXIT_OK
    print(f"FAIL after {result.cases} cases: {result.failure}", file=sys.stderr)
    return EXIT_VERIFY_FAIL


def _add_job_args(p: argparse.ArgumentParser):
    p.add_argument("--poly", required=True,
                   help='irreducible modulus, e.g. "1+x^74+x^233"')
    p.add_argument("--a2", required=True, help="curve coefficient a2 (hex or terms)")
    p.add_argument("--a6", required=True, help="curve coefficient a6 (hex or terms)")
    p.add_argument("--x2", required=True, help="fixed point x-coordinate")
    p.add_argument("--y2", required=True, help="fixed point y-coordinate")
    p.add_argument("--allow-off-curve", action="store_true",
                   help="skip the curve-membership check for (x2, y2)")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ecadd",
        description="Reversible point-addition circuits for binary elliptic curves",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("synth", help="synthesize a .qc circuit and JSON report")
    _add_job_args(ps)
    ps.add_argument("--out", required=True, help="output path (.qc)")
    ps.add_argument("--decompose", action="store_true",
                    help="write each Toffoli as its Clifford+T template")
    ps.set_defaults(func=cmd_synth)

    pt = sub.add_parser("tables", help="squaring / sqrt cost tables")
    pt.add_argument("kind", choices=("squaring", "sqrt"))
    pt.add_argument("--nist", action="store_true",
                    help="use the five built-in DSS field presets")
    pt.add_argument("--json", help="also write the rows as JSON to this path")
    pt.set_defaults(func=cmd_tables)

    pv = sub.add_parser("verify", help="simulate the circuit against the oracle")
    _add_job_args(pv)
    group = pv.add_mutually_exclusive_group()
    group.add_argument("--exhaustive", action="store_true",
                       help="sweep all valid generic-case inputs")
    group.add_argument("--samples", type=int, default=1000,
                       help="number of seeded random inputs (default 1000)")
    pv.add_argument("--seed", type=int, default=_default_seed(),
                    help="RNG seed (default: ECADD_SEED or 0)")
    pv.set_defaults(func=cmd_verify)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except BoundViolation as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except (AssertionError, RuntimeError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end.

Subcommands:

* ``synth``  -- build the point-addition circuit for a curve and fixed
  point, writing ``<out>.qc`` and ``<out>.report.json``;
* ``tables`` -- depth / CNOT-count tables of the squaring and square-root
  maps for the five named DSS/NIST binary fields;
* ``verify`` -- simulate a freshly synthesized circuit against the
  classical curve oracle, exhaustively or on seeded samples.

Exit codes: 0 ok, 1 validation error, 2 verification failure, 3 internal
invariant violation (a usage error is a validation error, and so is a
standard output that is closed before the command has written it).
``ECADD_SEED`` provides the default seed of ``verify``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from .ecoracle import AffinePoint, Curve, PointError
from .fanout import fork_join
from .gf2field import IrreduciblePoly, parse_element_text, parse_poly_text
from .linmaps import matrix_of_sqrt, matrix_of_squaring
from .pointaddsynth import (
    EXHAUSTIVE_MAX_N,
    OffCurveError,
    SynthesisError,
    emit_point_add,
    multiplier_report,
    score_point_add,
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

# The largest field degree that ``synth`` and ``verify`` accept, checked
# before the Rabin test: a generic-point ``synth`` of this degree stays
# within half of the 60 s and 2 GB per-field gate, even in one process
# (README).
MAX_DEGREE = 980

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_VERIFY_FAIL = 2
EXIT_INTERNAL = 3


class ValidationError(ValueError):
    pass


def _default_seed() -> int:
    """The seed of ``verify`` when ``--seed`` is not given."""
    text = os.environ.get("ECADD_SEED")
    if text is None:
        return 0
    try:
        return int(text)
    except ValueError:
        raise ValidationError(f"bad ECADD_SEED: {text!r}") from None


def _parse_field(poly_text: str) -> IrreduciblePoly:
    try:
        n = parse_poly_text(poly_text).bit_length() - 1
        if n > MAX_DEGREE:
            raise ValueError(f"degree {n} is above {MAX_DEGREE}")
        return IrreduciblePoly.from_string(poly_text)
    except ValueError as exc:
        raise ValidationError(f"bad --poly: {exc}") from exc


def _job_from_args(args) -> tuple[Curve, AffinePoint]:
    """The curve and the fixed point P2 named by the arguments."""
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
    return curve, p2


def report_to_json(field: IrreduciblePoly, report) -> dict:
    """Stable-ordered JSON payload for a synthesis report."""
    mult = multiplier_report(field)
    return {
        "schema": 1,
        "n": field.n,
        "poly": str(field),
        "multiplier_variant": "maslov_shift",
        **dataclasses.asdict(report),
        "prior_reference": {
            # Literature formulas for the earlier 13-multiplication
            # construction, evaluated with this field's multiplier cost.
            "t_count": 13 * mult.t_count,
            "t_depth": 4 * mult.t_depth,
        },
    }


def _write_file(path: str, data: bytes):
    """Write ``data`` to ``path``; a path that cannot be written to is a
    validation error."""
    try:
        with open(path, "wb") as fh:
            fh.write(data)
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc.strerror or exc}") from exc


def cmd_synth(args) -> int:
    curve, p2 = _job_from_args(args)
    out = args.out
    base = out[:-3] if out.endswith(".qc") else out
    if not os.path.basename(base):
        raise ValidationError(f"--out {out!r} names no file")
    try:
        circuit, work = emit_point_add(
            curve, p2, allow_off_curve=args.allow_off_curve)
    except OffCurveError as exc:
        raise ValidationError(
            f"{exc} (pass --allow-off-curve to synthesize anyway)") from exc
    except SynthesisError as exc:
        raise ValidationError(str(exc)) from exc

    def report_text() -> bytes:
        report = score_point_add(circuit, curve.field)
        return (json.dumps(report_to_json(curve.field, report), indent=2)
                + "\n").encode()

    # The report only reads the circuit, so a child can score it while
    # the .qc renders; neither file is written until its bounds pass.
    report_json, qc = fork_join(
        work, report_text, lambda: write_qc(circuit, clifford_t=args.decompose))
    qc_path = base + ".qc"
    report_path = base + ".report.json"
    _write_file(qc_path, qc)
    _write_file(report_path, report_json)
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
    rows = tables_rows(args.kind)
    # The JSON first, so that a path that cannot be written leaves
    # standard output empty.
    if args.json is not None:
        _write_file(args.json, (json.dumps(
            {"schema": 1, "kind": args.kind, "rows": rows}, indent=2)
            + "\n").encode())
    sys.stdout.write(format_table(args.kind, rows))
    return EXIT_OK


def cmd_verify(args) -> int:
    if not args.exhaustive and args.samples < 1:
        raise ValidationError(f"--samples must be at least 1, got {args.samples}")
    seed = _default_seed() if args.seed is None else args.seed
    curve, p2 = _job_from_args(args)
    if args.exhaustive and curve.field.n > EXHAUSTIVE_MAX_N:
        raise ValidationError(
            f"exhaustive verification is limited to n <= {EXHAUSTIVE_MAX_N}")
    try:
        circuit, _ = synth_point_add(curve, p2)
        result = verify_point_add(
            circuit, curve, p2,
            exhaustive=args.exhaustive,
            samples=args.samples,
            seed=seed,
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


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors exit with EXIT_VALIDATION;
    argparse's own code, 2, is EXIT_VERIFY_FAIL here."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_VALIDATION, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="ecadd",
        description="Reversible point-addition circuits for binary elliptic curves",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("synth", help="synthesize a .qc circuit and JSON report")
    _add_job_args(ps)
    ps.add_argument("--out", required=True, help="output path (.qc)")
    ps.add_argument("--allow-off-curve", action="store_true",
                    help="skip the curve-membership check for (x2, y2)")
    ps.add_argument("--decompose", action="store_true",
                    help="write each Toffoli as its Clifford+T template")
    ps.set_defaults(func=cmd_synth)

    pt = sub.add_parser("tables", help="squaring / sqrt cost tables")
    pt.add_argument("kind", choices=("squaring", "sqrt"))
    pt.add_argument("--json", help="also write the rows as JSON to this path")
    pt.set_defaults(func=cmd_tables)

    pv = sub.add_parser("verify", help="simulate the circuit against the oracle")
    _add_job_args(pv)
    group = pv.add_mutually_exclusive_group()
    group.add_argument("--exhaustive", action="store_true",
                       help="sweep all valid generic-case inputs")
    group.add_argument("--samples", type=int, default=1000,
                       help="number of seeded random inputs (default 1000)")
    pv.add_argument("--seed", type=int,
                    help="RNG seed (default: ECADD_SEED or 0)")
    pv.set_defaults(func=cmd_verify)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader of standard output has gone.  Point it at devnull so
        # that the flush at exit does not fail again (the Python docs'
        # advice for SIGPIPE).
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print("error: standard output is closed", file=sys.stderr)
        return EXIT_VALIDATION
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (AssertionError, RuntimeError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())

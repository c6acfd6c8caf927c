"""Command-line interface: flags, files, exit codes, determinism."""

import hashlib
import json
import os
import pathlib
import random
import re
import resource
import shlex
import subprocess
import sys
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import ecadd.cli as cli
from conftest import block_spans, circuit_of, gate_tuples
from ecadd.cli import (
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_VALIDATION,
    EXIT_VERIFY_FAIL,
    main,
)
from ecadd.ecoracle import Curve, random_point
from ecadd.gf2field import IrreduciblePoly, parse_element_text
from ecadd.pointaddsynth import BoundViolation
from ecadd.qcformat import parse_qc


def synth_args(out, extra=()):
    return ["synth", "--poly", "1+x+x^3", "--a2", "0x1", "--a6", "0x1",
            "--x2", "0x2", "--y2", "0x5", "--out", str(out), *extra]


# The B163 field with the curve and base point of the DSS curve B-163.
B163_VERIFY = [
    "verify", "--poly", "1+x^3+x^6+x^7+x^163", "--a2", "0x1",
    "--a6", "0x20a601907b8c953ca1481eb10512f78744a3205fd",
    "--x2", "0x3f0eba16286a2d57ea0991168d4994637e8343e36",
    "--y2", "0xd51fbc6c71a0094fa2cdd545b11c5c0c797324f1",
    "--samples", "128"]
TOY_JOB = synth_args("add.qc")
# A curve whose only affine points are P2 and -P2.
PLUS_MINUS_ONLY = ["--poly", "1+x", "--a2", "0x1", "--a6", "0x1",
                   "--x2", "0x0", "--y2", "0x1"]
README = pathlib.Path(__file__).parent.parent / "README.md"


@pytest.fixture(scope="module")
def b163_circuit():
    """The B163 circuit and report, synthesized once for the module."""
    curve, p2 = cli._job_from_args(cli.build_parser().parse_args(B163_VERIFY))
    return cli.synth_point_add(curve, p2)


class TestSynth:
    def test_writes_qc_and_report(self, tmp_path, capsys):
        out = tmp_path / "add.qc"
        assert main(synth_args(out)) == EXIT_OK
        assert out.exists()
        report_path = tmp_path / "add.report.json"
        assert report_path.exists()
        report = json.loads(report_path.read_text())
        assert report["schema"] == 1
        assert report["n"] == 3
        assert report["width"] == 33
        assert report["poly"] == "1+x+x^3"
        assert report["toffoli_count"] == 45
        assert report["t_count"] == 315
        assert set(report["bounds"]) == {
            "t_count", "total_gates", "t_depth", "depth", "width"}
        assert report["prior_reference"]["t_count"] == 13 * 7 * 9
        assert report["prior_reference"]["t_depth"] \
            == report["bounds"]["t_depth"]["bound"]
        labels = [s["label"] for s in report["subcircuits"]]
        assert "SM" in labels and "SR" in labels
        parse_qc(out.read_text())  # the emitted file is well-formed

    def test_reducible_polynomial_rejected(self, tmp_path, capsys):
        code = main(["synth", "--poly", "1+x^2", "--a2", "0x1", "--a6", "0x1",
                     "--x2", "0x2", "--y2", "0x5",
                     "--out", str(tmp_path / "x.qc")])
        assert code == EXIT_VALIDATION
        assert "reducible" in capsys.readouterr().err

    def test_off_curve_point_rejected_then_allowed(self, tmp_path, capsys):
        bad = ["synth", "--poly", "1+x+x^3", "--a2", "0x1", "--a6", "0x1",
               "--x2", "0x3", "--y2", "0x5", "--out", str(tmp_path / "y.qc")]
        assert main(bad) == EXIT_VALIDATION
        assert capsys.readouterr().err == (
            "error: P2 is not on the curve "
            "(pass --allow-off-curve to synthesize anyway)\n")
        assert main(bad + ["--allow-off-curve"]) == EXIT_OK

    def test_bad_element_text(self, tmp_path, capsys):
        code = main(["synth", "--poly", "1+x+x^3", "--a2", "frog",
                     "--a6", "0x1", "--x2", "0x2", "--y2", "0x5",
                     "--out", str(tmp_path / "z.qc")])
        assert code == EXIT_VALIDATION

    def test_element_must_fit_field(self, tmp_path, capsys):
        code = main(["synth", "--poly", "1+x+x^3", "--a2", "0x1",
                     "--a6", "0x100", "--x2", "0x2", "--y2", "0x5",
                     "--out", str(tmp_path / "z.qc")])
        assert code == EXIT_VALIDATION

    def test_deterministic_output(self, tmp_path, capsys):
        a, b = tmp_path / "a.qc", tmp_path / "b.qc"
        assert main(synth_args(a)) == EXIT_OK
        assert main(synth_args(b)) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_unwritable_out_path(self, tmp_path, capsys):
        out = tmp_path / "missing" / "a.qc"
        assert main(synth_args(out)) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(out) in err
        assert not out.parent.exists()

    @pytest.mark.parametrize("out", ["", "somedir/", ".qc", "somedir/.qc"])
    def test_out_without_file_stem_rejected(self, out, tmp_path, capsys,
                                            monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "somedir").mkdir()
        assert main(synth_args(out)) == EXIT_VALIDATION
        assert "names no file" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["somedir"]

    def test_bound_violation_is_internal_error(self, tmp_path, capsys,
                                               monkeypatch):
        def violated(*args):
            raise BoundViolation("depth: 9 > bound 8")

        monkeypatch.setattr("ecadd.pointaddsynth.check_bounds", violated)
        out = tmp_path / "v.qc"
        assert main(synth_args(out)) == EXIT_INTERNAL
        assert capsys.readouterr().err \
            == "internal error: depth: 9 > bound 8\n"
        assert not out.exists()

    def test_decompose_flag(self, tmp_path, capsys):
        out = tmp_path / "d.qc"
        assert main(synth_args(out, ["--decompose"])) == EXIT_OK
        text = out.read_text()
        assert "H " in text and "T* " in text


def report_sha256(argv, report=None) -> str:
    """sha256 of the .report.json text of a job, synthesized unless its
    report is given."""
    curve, p2 = cli._job_from_args(cli.build_parser().parse_args(argv))
    if report is None:
        _, report = cli.synth_point_add(curve, p2)
    text = json.dumps(cli.report_to_json(curve.field, report), indent=2) + "\n"
    return hashlib.sha256(text.encode()).hexdigest()


class TestReportPin:
    """The report of the toy job and of the DSS curve B-163 with its base
    point, pinned byte for byte: keys, their order and every value."""

    def test_toy_report_bytes(self):
        assert report_sha256(TOY_JOB) == (
            "fe687f7a2fbb6785754792fab4521664b68afa94803b08618fec35e8c006d7d2")

    def test_b163_report_bytes(self, b163_circuit):
        assert report_sha256(B163_VERIFY, b163_circuit[1]) == (
            "9c2204ad655c2f606d174847014f5d9227bea2c848afbc9b1bf971385ce945f7")


class TestTables:
    def test_squaring_table_shape(self, capsys):
        assert main(["tables", "squaring"]) == EXIT_OK
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert "squaring" in lines[0]
        assert len(lines) == 8  # title + header + rule + five rows
        assert lines[3].split() == ["1+x^3+x^6+x^7+x^163", "8", "415"]
        assert lines[4].split() == ["1+x^74+x^233", "3", "386"]

    def test_sqrt_table_json(self, tmp_path, capsys):
        path = tmp_path / "rows.json"
        assert main(["tables", "sqrt", "--json", str(path)]) == EXIT_OK
        data = json.loads(path.read_text())
        assert data["kind"] == "sqrt"
        rows = {r["name"]: r for r in data["rows"]}
        assert rows["B233"]["depth"] == 6 and rows["B233"]["cnots"] == 591
        assert rows["B409"]["depth"] == 2 and rows["B409"]["cnots"] == 613


    def test_unwritable_json_path(self, tmp_path, capsys):
        path = tmp_path / "missing" / "r.json"
        code = main(["tables", "sqrt", "--json", str(path)])
        assert code == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and str(path) in captured.err

    def test_empty_json_path_refused(self, tmp_path, capsys, monkeypatch):
        # An empty path is a path that cannot be written, not no path.
        monkeypatch.chdir(tmp_path)
        code = main(["tables", "squaring", "--json", ""])
        assert code == EXIT_VALIDATION
        assert capsys.readouterr().err.startswith("error: cannot write ")
        assert list(tmp_path.iterdir()) == []


class TestVerify:
    BASE = ["verify", "--poly", "1+x+x^3", "--a2", "0x1", "--a6", "0x1",
            "--x2", "0x2", "--y2", "0x5"]

    def test_exhaustive_passes(self, capsys):
        assert main(self.BASE + ["--exhaustive"]) == EXIT_OK
        assert "PASS" in capsys.readouterr().out

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_sample_count_below_one_rejected(self, count, capsys):
        assert main(self.BASE + ["--samples", count]) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert "PASS" not in captured.out
        assert "--samples must be at least 1" in captured.err

    def test_sampling_is_seed_deterministic(self, capsys):
        assert main(self.BASE + ["--samples", "50", "--seed", "7"]) == EXIT_OK
        first = capsys.readouterr().out
        assert main(self.BASE + ["--samples", "50", "--seed", "7"]) == EXIT_OK
        assert capsys.readouterr().out == first

    def test_env_seed_default(self, capsys, monkeypatch):
        monkeypatch.delenv("ECADD_SEED", raising=False)
        assert cli._default_seed() == 0
        monkeypatch.setenv("ECADD_SEED", "99")
        assert cli._default_seed() == 99
        assert main(self.BASE + ["--samples", "50"]) == EXIT_OK
        from_env = capsys.readouterr().out
        assert main(self.BASE + ["--samples", "50", "--seed", "99"]) == EXIT_OK
        assert capsys.readouterr().out == from_env

    def test_bad_env_seed_rejected(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("ECADD_SEED", "junk")
        assert main(self.BASE + ["--samples", "50"]) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert "PASS" not in captured.out
        assert captured.err == "error: bad ECADD_SEED: 'junk'\n"
        # An explicit --seed wins, and synth and tables never read it.
        assert main(self.BASE + ["--samples", "50", "--seed", "1"]) == EXIT_OK
        assert main(["tables", "squaring"]) == EXIT_OK
        assert main(synth_args(tmp_path / "c.qc")) == EXIT_OK

    def test_usage_error_is_a_validation_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(self.BASE + ["--samples", "abc"])
        assert exc.value.code == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("usage: ecadd verify")
        assert "invalid int value: 'abc'" in err
        with pytest.raises(SystemExit) as exc:
            main(["synth", "--poly", "1+x+x^3"])
        assert exc.value.code == EXIT_VALIDATION
        assert "the following arguments are required" in capsys.readouterr().err
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--help"])
        assert exc.value.code == EXIT_OK

    @pytest.mark.parametrize("mutant, failure", [
        ("retarget", "X1 not restored"),
        ("drop", "output differs from the mixed-addition formula"),
    ], ids=["retarget", "drop"])
    def test_b163_mutants_fail(self, b163_circuit, mutant, failure, capsys,
                               monkeypatch):
        from ecadd.circuit_ir import CNOT, TOFFOLI

        # The first CNOT of the X block retargeted, or the first Toffoli
        # dropped, in a copy of the circuit.
        circ, report = b163_circuit
        gates = gate_tuples(circ.runs)
        if mutant == "retarget":
            i = next(start for label, start, _ in block_spans(circ)
                     if label == "X")
            kind, c, t = gates[i]
            assert kind == CNOT
            gates[i] = (CNOT, c, t + 1)
        else:
            i = next(k for k, g in enumerate(gates) if g[0] == TOFFOLI)
            del gates[i]
        mutant = circuit_of(circ.wires, gates)
        monkeypatch.setattr(cli, "synth_point_add",
                            lambda *a, **k: (mutant, report))
        assert main(B163_VERIFY) == EXIT_VERIFY_FAIL
        assert failure in capsys.readouterr().err

    def test_exhaustive_cap(self, capsys, monkeypatch):
        import ecadd.cli as cli
        from ecadd.pointaddsynth import EXHAUSTIVE_MAX_N

        # The request is refused before any circuit is built.
        monkeypatch.setattr(cli, "synth_point_add", None)
        code = main(["verify", "--poly", "1+x^4+x^9", "--a2", "0x1",
                     "--a6", "0x1", "--x2", "0x2", "--y2", "0x5",
                     "--exhaustive"])
        assert EXHAUSTIVE_MAX_N < 9
        assert code == EXIT_VALIDATION
        assert f"limited to n <= {EXHAUSTIVE_MAX_N}" in capsys.readouterr().err

    @pytest.mark.parametrize("curve", [
        ["--poly", "1+x+x^2", "--a2", "0x2", "--a6", "0x1"],
        ["--poly", "1+x", "--a2", "0x1", "--a6", "0x1"],
    ])
    def test_exhaustive_without_generic_case_fails(self, curve, capsys):
        # The only affine points are +-P2, so there is nothing to check;
        # this used to print "PASS: 0 cases".
        code = main(["verify", *curve, "--x2", "0x0", "--y2", "0x1",
                     "--exhaustive"])
        assert code == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert "PASS" not in captured.out
        assert "no generic-case input" in captured.err

    def test_sampled_without_generic_case_fails_at_once(self, deadline,
                                                        capsys):
        # This used to draw 100 attempts a sample, 64 s in all, before it
        # gave up with another message.
        start = time.monotonic()
        code = main(["verify", *PLUS_MINUS_ONLY, "--samples", "100000"])
        assert time.monotonic() - start < 5
        assert code == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: no generic-case input to verify: every affine point "
            "of the curve is P2 or -P2\n")

    def test_off_curve_point_rejected(self, capsys):
        # No per-case check reads a6, so this P2 would pass all 200
        # cases.  --allow-off-curve is a synth flag only.
        off = ["verify", "--poly", "1+x+x^7", "--a2", "0x1", "--a6", "0x1",
               "--x2", "0x2", "--y2", "0x5", "--samples", "200"]
        assert main(off) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert "PASS" not in captured.out
        assert captured.err == "error: P2 is not on the curve\n"
        with pytest.raises(SystemExit) as exc:
            main(off + ["--allow-off-curve"])
        assert exc.value.code == EXIT_VALIDATION

    def test_decompose_is_a_synth_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(self.BASE + ["--exhaustive", "--decompose"])
        assert exc.value.code == EXIT_VALIDATION

    def test_corrupted_circuit_fails_with_counterexample(
            self, capsys, monkeypatch):
        import ecadd.pointaddsynth as pas
        from ecadd.circuit_ir import TOFFOLI

        real = pas.synth_point_add

        def corrupted(curve, p2, **kwargs):
            circ, report = real(curve, p2, **kwargs)
            gates = gate_tuples(circ.runs)
            for i, g in enumerate(gates):
                if g[0] == TOFFOLI:
                    gates[i] = (TOFFOLI, g[1], g[2], (g[3] + 1) % circ.width)
                    break
            return circuit_of(circ.wires, gates), report

        monkeypatch.setattr(cli, "synth_point_add", corrupted)
        code = main(self.BASE + ["--exhaustive"])
        assert code == EXIT_VERIFY_FAIL
        err = capsys.readouterr().err
        assert "FAIL" in err and "P1=" in err


def readme_commands():
    """The ``ecadd`` lines of the README's ``## Command line`` code block,
    with each backslash continuation joined to its line."""
    section = README.read_text().split("## Command line\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [ln.strip() for ln in lines if ln.strip().startswith("ecadd ")]


def test_readme_commands_exit_zero(tmp_path, capsys, monkeypatch):
    # Each verify line must also print its pass line: "PASS: N cases",
    # with N its --samples count, or N >= 1 for an exhaustive check.
    monkeypatch.chdir(tmp_path)
    commands = readme_commands()
    assert commands
    verified = 0
    for line in commands:
        argv = shlex.split(line)[1:]
        capsys.readouterr()
        assert main(argv) == EXIT_OK, line
        if argv[0] != "verify":
            continue
        verified += 1
        out = capsys.readouterr().out
        if "--samples" in argv:
            want = argv[argv.index("--samples") + 1]
            assert f"PASS: {want} cases" in out, line
        else:
            cases = re.search(r"PASS: (\d+) cases", out)
            assert cases and int(cases.group(1)) >= 1, line
    assert verified == 3


# Without the exponent cap, the first two commands below end in a
# MemoryError traceback, and the third in a Rabin test still running
# after a minute.
HUGE_EXPONENTS = [
    ("--a2", ["--poly", "1+x+x^2", "--a2", "x^99999999999"]),
    ("--poly", ["--poly", "1+x^99999999999", "--a2", "x^99999999999"]),
    ("--poly", ["--poly", "1+x^1000000", "--a2", "x^99999999999"]),
]


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.mark.parametrize("flag, job", HUGE_EXPONENTS)
def test_huge_exponent_refused(flag, job, tmp_path):
    # A child process, so that the 1 GiB address-space limit and the
    # timeout hold however the command fails.
    src = pathlib.Path(cli.__file__).parent.parent
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run(
        [sys.executable, "-m", "ecadd.cli", "synth", *job, "--a6", "1",
         "--x2", "0", "--y2", "1", "--out", "a.qc"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=20,
        preexec_fn=_limit_memory)
    assert proc.returncode == EXIT_VALIDATION
    assert re.fullmatch(rf"error: bad {flag}: exponent \d+ is above \d+\n",
                        proc.stderr)
    assert list(tmp_path.iterdir()) == []


def closed_pipe():
    # The reader of standard output is gone before the command starts,
    # as in `ecadd tables squaring | true`.
    read_end, write_end = os.pipe()
    os.close(read_end)
    return write_end, None


def full_device():
    # As in `ecadd tables squaring >/dev/full`.
    return os.open("/dev/full", os.O_WRONLY), None


def closed_descriptor():
    # As in `ecadd tables squaring >&-`: Python starts with no
    # sys.stdout.
    return None, lambda: os.close(1)


STDOUTS = {
    "": (closed_pipe, "standard output is closed"),
    "-full": (full_device,
              "cannot write standard output: No space left on device"),
    "-closed-descriptor": (closed_descriptor, "standard output is closed"),
}
COMMANDS = {
    "tables": ["tables", "squaring"],
    "synth": TOY_JOB,
    "verify": ["verify", *TOY_JOB[1:-2], "--samples", "8"],
}


@pytest.mark.parametrize("argv, stdout, message", [
    pytest.param(argv, *how, id=command + kind)
    for kind, how in STDOUTS.items() for command, argv in COMMANDS.items()
])
def test_closed_stdout_is_a_validation_error(argv, stdout, message,
                                             tmp_path):
    src = pathlib.Path(cli.__file__).parent.parent
    env = {**os.environ, "PYTHONPATH": str(src)}
    fd, before_exec = stdout()
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "ecadd.cli", *argv], cwd=tmp_path, env=env,
            stdout=fd, stderr=subprocess.PIPE, text=True, timeout=60,
            preexec_fn=before_exec)
    finally:
        if fd is not None:
            os.close(fd)
    assert proc.returncode == EXIT_VALIDATION
    assert proc.stderr == f"error: {message}\n"


@pytest.mark.parametrize("command", ["synth", "verify"])
def test_degree_above_cap_refused(command, tmp_path, capsys, monkeypatch):
    # The degree is refused before the Rabin test runs, which would
    # report 1+x^n as reducible instead.
    def rabin(bits):
        raise AssertionError("the Rabin test ran")

    monkeypatch.setattr("ecadd.gf2field.is_irreducible", rabin)
    monkeypatch.chdir(tmp_path)
    n = cli.MAX_DEGREE + 1
    argv = [command, "--poly", f"1+x^{n}", "--a2", "1", "--a6", "1",
            "--x2", "0", "--y2", "1"]
    if command == "synth":
        argv += ["--out", "a.qc"]
    assert main(argv) == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: bad --poly: degree {n} is above {cli.MAX_DEGREE}\n")
    assert list(tmp_path.iterdir()) == []


# The CLI census: argv built from fragments, n <= 8, or a job on the
# PLUS_MINUS_ONLY curve.  The number after each modulus is the degree
# used to draw its elements.  The bad moduli are a reducible one,
# degree-0 and degree-1 ones and bad text.
GOOD_MODULI = (("1+x+x^2", 2), ("1+x+x^3", 3), ("1+x+x^4", 4),
               ("1+x^2+x^5", 5), ("1+x+x^6", 6), ("1+x+x^7", 7),
               ("1+x+x^3+x^4+x^8", 8))
BAD_MODULI = (("1+x^2", 2), ("1", 0), ("1+x", 1), ("x", 1), ("", 8),
              ("0x7", 8), ("-1", 8), ("1+x^3+x^3", 3))
BAD_TEXT = ("", "0xZZ", "-1", "-0x3", "0x", "x^", "1+1", "x^-1", " ", "y")


def mostly(good, bad):
    """Draws from ``good`` three times in four, else from ``bad``."""
    return st.integers(0, 3).flatmap(lambda k: good if k else bad)


def census_element(n):
    """Element text: mostly in the field, else too wide for it, a power
    of x up to x^1000000, or bad text."""
    return mostly(st.integers(0, (1 << n) - 1).map(hex), st.one_of(
        st.integers(1 << n, 1 << (n + 3)).map(hex),
        st.integers(0, 10**6).map(lambda e: f"x^{e}"),
        st.sampled_from(BAD_TEXT)))


def census_point(poly, a2, a6, seed):
    """A point on the curve, as hex, or None when the job is invalid."""
    try:
        fld = IrreduciblePoly.from_string(poly)
        curve = Curve(fld.elem(parse_element_text(a2)),
                      fld.elem(parse_element_text(a6)))
    except ValueError:
        return None
    p = random_point(curve, random.Random(seed))
    return [hex(p.x.value), hex(p.y.value)]


@st.composite
def census_curve(draw, command):
    """(argv, n): ``command`` with a curve and P2 drawn from fragments."""
    poly, n = draw(mostly(st.sampled_from(GOOD_MODULI),
                          st.sampled_from(BAD_MODULI)))
    a2, a6 = draw(census_element(n)), draw(census_element(n))
    point = None
    if draw(mostly(st.just(True), st.just(False))):
        point = census_point(poly, a2, a6, draw(st.integers(0, 99)))
    if point is None:  # most likely off the curve
        point = [draw(census_element(n)), draw(census_element(n))]
    return [command, "--poly", poly, "--a2", a2, "--a6", a6,
            "--x2", point[0], "--y2", point[1]], n


@st.composite
def census_argvs(draw, paths):
    command = draw(st.sampled_from(("synth", "verify", "tables")))
    if command == "tables":
        argv = ["tables", draw(st.sampled_from(("squaring", "sqrt", "cube")))]
        if draw(st.booleans()):
            argv += ["--json", draw(mostly(st.just(paths[0]),
                                           st.sampled_from(paths[1:])))]
        return argv
    argv, n = draw(mostly(census_curve(command), st.just(
        ([command, *PLUS_MINUS_ONLY], 1))))
    if command == "synth":
        argv += ["--out", draw(mostly(st.just(paths[0]),
                                      st.sampled_from(paths[1:])))]
        argv += draw(st.sets(st.sampled_from(("--allow-off-curve",
                                              "--decompose"))))
        return argv
    if n <= 5 and draw(mostly(st.just(False), st.just(True))):
        argv.append("--exhaustive")
    if draw(st.booleans()):
        argv += ["--samples", draw(mostly(st.sampled_from(("1", "2", "64")),
                                          st.sampled_from(("-5", "0", "abc"))))]
    if draw(st.booleans()):
        argv += ["--seed", draw(st.sampled_from(
            ("-1", "0", str(2**63), str(2**64 + 1), str(-2**70), "x")))]
    return argv


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_cli_census(data, tmp_path, capsys, monkeypatch):
    # Every argv ends in a documented exit code, never in a traceback,
    # and a command that exits 0 has written every file it was given.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "adir.qc").mkdir(exist_ok=True)
    (tmp_path / "rdir.report.json").mkdir(exist_ok=True)
    ok = tmp_path / "ok.qc"
    paths = (str(ok), "", str(tmp_path / "missing" / "a.qc"),
             str(tmp_path / "adir.qc"), str(tmp_path / "adir"),
             str(tmp_path / "rdir"))
    for p in (ok, tmp_path / "ok.report.json"):
        p.unlink(missing_ok=True)
    argv = data.draw(census_argvs(paths))
    capsys.readouterr()
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse's way out of a usage error
        code = exc.code
    err = capsys.readouterr().err
    assert code in (EXIT_OK, EXIT_VALIDATION, EXIT_VERIFY_FAIL, EXIT_INTERNAL)
    assert "Traceback" not in err
    if code == EXIT_OK and argv[0] == "synth":
        assert ok.exists() and (tmp_path / "ok.report.json").exists()
    if code == EXIT_OK and "--json" in argv:
        assert pathlib.Path(argv[argv.index("--json") + 1]).is_file()

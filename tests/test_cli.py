"""Command-line interface: flags, files, exit codes, determinism."""

import json

import pytest

import ecadd.cli as cli
from ecadd.cli import (
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_VALIDATION,
    EXIT_VERIFY_FAIL,
    main,
)
from ecadd.qcformat import parse_qc


def synth_args(out, extra=()):
    return ["synth", "--poly", "1+x+x^3", "--a2", "0x1", "--a6", "0x1",
            "--x2", "0x2", "--y2", "0x5", "--out", str(out), *extra]


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
        assert "not on the curve" in capsys.readouterr().err
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

    def test_decompose_flag(self, tmp_path, capsys):
        out = tmp_path / "d.qc"
        assert main(synth_args(out, ["--decompose"])) == EXIT_OK
        text = out.read_text()
        assert "H " in text and "T* " in text


class TestTables:
    def test_requires_nist(self, capsys):
        assert main(["tables", "squaring"]) == EXIT_VALIDATION

    def test_squaring_table_shape(self, capsys):
        assert main(["tables", "squaring", "--nist"]) == EXIT_OK
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert "squaring" in lines[0]
        assert len(lines) == 8  # title + header + rule + five rows
        assert lines[3].split() == ["1+x^3+x^6+x^7+x^163", "8", "415"]
        assert lines[4].split() == ["1+x^74+x^233", "3", "386"]

    def test_sqrt_table_json(self, tmp_path, capsys):
        path = tmp_path / "rows.json"
        assert main(["tables", "sqrt", "--nist", "--json", str(path)]) == EXIT_OK
        data = json.loads(path.read_text())
        assert data["kind"] == "sqrt"
        rows = {r["name"]: r for r in data["rows"]}
        assert rows["B233"]["depth"] == 6 and rows["B233"]["cnots"] == 591
        assert rows["B409"]["depth"] == 2 and rows["B409"]["cnots"] == 613


    def test_unwritable_json_path(self, tmp_path, capsys):
        path = tmp_path / "missing" / "r.json"
        code = main(["tables", "sqrt", "--nist", "--json", str(path)])
        assert code == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(path) in err


class TestVerify:
    BASE = ["verify", "--poly", "1+x+x^3", "--a2", "0x1", "--a6", "0x1",
            "--x2", "0x2", "--y2", "0x5"]

    def test_exhaustive_passes(self, capsys):
        assert main(self.BASE + ["--exhaustive"]) == EXIT_OK
        assert "PASS" in capsys.readouterr().out

    def test_readme_sampling_example_passes(self, capsys):
        argv = ["verify", "--poly", "1+x^2+x^5", "--a2", "0x1", "--a6", "0x1",
                "--x2", "0x6", "--y2", "0x10", "--samples", "1000",
                "--seed", "7"]
        assert main(argv) == EXIT_OK
        assert "PASS: 1000 cases" in capsys.readouterr().out

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
        monkeypatch.setenv("ECADD_SEED", "99")
        parser = cli.build_parser()
        # Re-resolve the default against the environment.
        assert cli._default_seed() == 99
        monkeypatch.setenv("ECADD_SEED", "junk")
        assert cli._default_seed() == 0

    def test_width_cap(self, capsys):
        code = main(["verify", "--poly", "1+x^74+x^233", "--a2", "0x1",
                     "--a6", "0x1", "--x2", "0x2", "--y2", "0x5",
                     "--allow-off-curve"])
        assert code == EXIT_VALIDATION

    def test_exhaustive_cap(self, capsys, monkeypatch):
        import ecadd.cli as cli
        from ecadd.pointaddsynth import EXHAUSTIVE_MAX_N

        # The request is refused before any circuit is built.
        monkeypatch.setattr(cli, "synth_point_add", None)
        code = main(["verify", "--poly", "1+x^4+x^9", "--a2", "0x1",
                     "--a6", "0x1", "--x2", "0x2", "--y2", "0x5",
                     "--allow-off-curve", "--exhaustive"])
        assert EXHAUSTIVE_MAX_N < 9
        assert code == EXIT_VALIDATION
        assert f"limited to n <= {EXHAUSTIVE_MAX_N}" in capsys.readouterr().err

    def test_decompose_is_a_synth_flag(self, capsys):
        with pytest.raises(SystemExit):
            main(self.BASE + ["--exhaustive", "--decompose"])

    def test_corrupted_circuit_fails_with_counterexample(
            self, capsys, monkeypatch):
        import ecadd.pointaddsynth as pas
        from ecadd.circuit_ir import TOFFOLI

        real = pas.synth_point_add

        def corrupted(curve, p2, opts=None):
            circ, report = real(curve, p2, opts)
            gates = circ.gate_tuples()
            for i, g in enumerate(gates):
                if g[0] == TOFFOLI:
                    gates[i] = (TOFFOLI, g[1], g[2], (g[3] + 1) % circ.width)
                    break
            return circ, report

        monkeypatch.setattr(cli, "synth_point_add", corrupted)
        code = main(self.BASE + ["--exhaustive"])
        assert code == EXIT_VERIFY_FAIL
        err = capsys.readouterr().err
        assert "FAIL" in err and "P1=" in err

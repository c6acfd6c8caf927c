"""The benchmark's tracer still finds the names it wraps.

bench/tracer.py wraps ecadd functions where their callers look them up
and reads their return values; a rename or a changed return type would
only show under ``bench/run.py --trace 1``.  The job runs in a child
process so that the tracer's patching stays out of this one.
"""

import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_traced_decompose_job(tmp_path):
    qc = tmp_path / "a.qc"
    argv = ["synth", "--poly", "1+x+x^3", "--a2", "0x1", "--a6", "0x1",
            "--x2", "0x2", "--y2", "0x5", "--out", str(qc), "--decompose"]
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "job.py"), str(ROOT / "src"), "1"]
        + argv, cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["exit"] == 0
    trace = result["trace"]
    assert trace["counts"]["qcformat.bytes"] == qc.stat().st_size
    names = {span[0] for span in trace["spans"]}
    assert "qcformat.write" in names
    # The Clifford+T text is expanded as it is written, without a copy.
    assert "circuit_ir.decompose" not in names
    assert "T* " in qc.read_text()


def test_traced_synth_job_counts_the_bytes_written(tmp_path):
    qc = tmp_path / "a.qc"
    argv = ["synth", "--poly", "1+x+x^3", "--a2", "0x1", "--a6", "0x1",
            "--x2", "0x2", "--y2", "0x5", "--out", str(qc)]
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "job.py"), str(ROOT / "src"), "1"]
        + argv, cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["exit"] == 0
    counts = result["trace"]["counts"]
    assert counts["qcformat.bytes"] == qc.stat().st_size
    assert "T* " not in qc.read_text()
    # The coloring and emission counts of this job, which read 0 if the
    # work stops going through the names that the tracer wraps.
    assert counts["edgecolor.edges"] == 25
    assert counts["edgecolor.colors"] == 12
    assert counts["fieldsynth.gates"] == 126


def test_traced_verify_job():
    argv = ["verify", "--poly", "1+x+x^7", "--a2", "0x1", "--a6", "0x1",
            "--x2", "0x0", "--y2", "0x1", "--samples", "50"]
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "job.py"), str(ROOT / "src"), "1"]
        + argv, cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["exit"] == 0
    counts = result["trace"]["counts"]
    assert counts["ecoracle.cases"] == 50
    assert counts["gf2field.solve_quadratic_calls"] > 0

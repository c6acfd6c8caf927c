"""Benchmark of ecadd's ``synth``, ``synth --decompose`` and ``verify``.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  One benchmark process runs the
workload's jobs one at a time in a closed loop; each job is one ecadd
command line in its own child process (bench/job.py), so it pays what a
user of the command pays, imports and caches included.  A run repeats
whole rounds of the same jobs until the jobs' wall time comes nearest
to S seconds, checks every output against bench/reference.py and
prints one JSON object as its last line of standard output.  It exits
with code 1 when a check fails.

With --trace 0 that object holds the end-to-end metrics: each job's
median over rounds, summed over jobs.  With --trace 1 untraced rounds
alternate with rounds that have bench/tracer.py's spans installed; it
holds the per-module metrics of the traced rounds and the tracing
overhead, and the spans are written to bench/out/.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import check
import reference as ref

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
OUT = BENCH / "out"

DSS_FIELDS = (
    ("B163", "1+x^3+x^6+x^7+x^163"),
    ("B233", "1+x^74+x^233"),
    ("B283", "1+x^5+x^7+x^12+x^283"),
    ("B409", "1+x^87+x^409"),
    ("B571", "1+x^2+x^5+x^10+x^571"),
)
# The verify job at this n fails by a known program fault, whatever the
# seed: for an even n above 16 the brute-force solve_quadratic raises
# UnsupportedField, uncaught.  Any other way of failing is a problem.
KNOWN_FAULT_N = 18
KNOWN_FAULT_TEXT = "UnsupportedField"


@dataclass(frozen=True)
class Job:
    command: str  # "synth" or "verify"
    poly: str
    a2: int
    a6: int
    x2: int
    y2: int
    decompose: bool = False
    exhaustive: bool = False
    samples: int = 0
    vseed: int = 0
    recheck: bool = False  # also check seeded on-curve inputs

    def argv(self, qc_path: Path) -> list[str]:
        args = [self.command, "--poly", self.poly, "--a2", hex(self.a2),
                "--a6", hex(self.a6), "--x2", hex(self.x2), "--y2", hex(self.y2)]
        if self.command == "synth":
            args += ["--out", str(qc_path)] + (["--decompose"] if self.decompose else [])
        elif self.exhaustive:
            args.append("--exhaustive")
        else:
            args += ["--samples", str(self.samples), "--seed", str(self.vseed)]
        return args


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------


def dss_jobs(rng, names, decompose=False) -> list[Job]:
    """synth on y^2 + xy = x^3 + x^2 + 1 over DSS fields, one seeded
    random fixed point per field."""
    jobs = []
    for name, poly in DSS_FIELDS:
        if name in names:
            x2, y2 = ref.random_point(ref.Field(ref.parse_poly(poly)), 1, 1, rng)
            jobs.append(Job("synth", poly, 1, 1, x2, y2, decompose=decompose))
    return jobs


def verify_small_jobs(rng) -> list[Job]:
    """Each verify job follows a synth job of the same curve and point,
    whose .qc is re-checked on seeded on-curve inputs."""
    specs = []  # (n, a2, a6, x2, y2, exhaustive, vseed)
    for n in (2, 3, 4):
        F = ref.Field(ref.first_irreducible(n))
        while True:
            a2, a6 = rng.getrandbits(n), rng.randrange(1, 1 << n)
            points = ref.affine_points(F, a2, a6)
            if len(points) >= 4:
                break
        specs.append((n, a2, a6) + rng.choice(points) + (True, 0))
    for n in (5, 6, 7, 8, 17, 19):
        F = ref.Field(ref.first_irreducible(n))
        a2, a6 = rng.getrandbits(n), rng.randrange(1, 1 << n)
        specs.append((n, a2, a6) + ref.random_point(F, a2, a6, rng)
                     + (False, rng.getrandbits(30)))
    fixed = random.Random(KNOWN_FAULT_N)
    F = ref.Field(ref.first_irreducible(KNOWN_FAULT_N))
    specs.append((KNOWN_FAULT_N, 1, 1) + ref.random_point(F, 1, 1, fixed)
                 + (False, KNOWN_FAULT_N))
    jobs = []
    for n, a2, a6, x2, y2, exhaustive, vseed in specs:
        poly = ref.poly_text(ref.first_irreducible(n))
        jobs.append(Job("synth", poly, a2, a6, x2, y2, recheck=True))
        jobs.append(Job("verify", poly, a2, a6, x2, y2, exhaustive=exhaustive,
                        samples=0 if exhaustive else 1000, vseed=vseed))
    return jobs


WORKLOADS = {
    "dss_synth": lambda rng: (dss_jobs(rng, ("B163", "B233"))
                              + dss_jobs(rng, ("B163",), decompose=True)),
    "verify_small": verify_small_jobs,
    # Not in BENCHMARK.json.  dss_decompose isolates the --decompose job
    # of dss_synth; the other two take 15 s to two minutes a round and
    # regenerate the larger rows of the reference figures.
    "dss_decompose": lambda rng: dss_jobs(rng, ("B163",), decompose=True),
    "dss_synth_all": lambda rng: dss_jobs(rng, [name for name, _ in DSS_FIELDS]),
    "dss_decompose_b283": lambda rng: dss_jobs(rng, ("B283",), decompose=True),
}

# ----------------------------------------------------------------------
# Running jobs
# ----------------------------------------------------------------------


def run_job(job: Job, qc_path: Path, trace: bool) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "ECADD_SEED"}
    env["PYTHONHASHSEED"] = "0"  # the same dict layouts in every run
    argv = [sys.executable, str(BENCH / "job.py"), str(ROOT / "src"),
            "1" if trace else "0"] + job.argv(qc_path)
    start = time.monotonic()
    proc = subprocess.run(argv, capture_output=True, text=True, env=env,
                          cwd=qc_path.parent)
    wall = time.monotonic() - start
    lines = proc.stdout.splitlines()
    try:
        info = json.loads(lines[-1])
    except (IndexError, ValueError):
        info = {"exit": proc.returncode, "setup_end": None,
                "peak_rss_mb": 0.0, "trace": None}
    setup_end = info["setup_end"]
    return {
        "job": job,
        "exit": proc.returncode,
        "wall": wall,
        "setup": wall if setup_end is None else setup_end - start,
        "rss": info["peak_rss_mb"],
        "stdout": "\n".join(lines[:-1]),
        "stderr": proc.stderr,
        "trace": info["trace"],
        "qc": qc_path,
    }


def digest(*paths: Path) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(p.read_bytes())
    return h.hexdigest()


class Round:
    """One pass over a workload's jobs and the checks of their outputs."""

    def __init__(self, jobs, tmp: Path, trace: bool, seed: int, first: dict):
        self.trace = trace
        self.results = []
        self.problems: list[str] = []
        self.failed = 0
        self.reports = []
        for i, job in enumerate(jobs):
            r = run_job(job, tmp / f"job{i}.qc", trace)
            self.results.append(r)
            self._check(i, r, seed, first)
            for p in tmp.iterdir():
                p.unlink()

    def _check(self, i: int, r: dict, seed: int, first: dict):
        job = r["job"]
        n = ref.parse_poly(job.poly).bit_length() - 1
        tag = f"job {i} ({job.command} n={n})"
        if r["exit"] != 0:
            if (job.command == "verify" and n == KNOWN_FAULT_N and r["exit"] == 1
                    and KNOWN_FAULT_TEXT in r["stderr"]):
                self.failed += 1
            else:
                self.problems.append(f"{tag}: exit code {r['exit']}: {r['stderr'][-300:]}")
            return
        if job.command == "verify":
            m = re.search(r"PASS: (\d+) cases", r["stdout"])
            cases = int(m.group(1)) if m else -1
            want = check.expected_cases(job)
            r["cases"] = cases
            if cases != want:
                self.problems.append(f"{tag}: {cases} cases, expected {want}")
            return
        qc = r["qc"]
        report_path = qc.with_suffix(".report.json")
        report = json.loads(report_path.read_text())
        r["qc_bytes"] = qc.stat().st_size
        self.reports.append((job, report))
        key = digest(qc, report_path)
        if i in first:
            if first[i] != key:
                self.problems.append(f"{tag}: output differs from the first round")
            return
        first[i] = key
        self.problems += [f"{tag}: {p}" for p in check.check_synth(job, report, qc, seed + i)]

    @property
    def wall(self) -> float:
        return sum(r["wall"] for r in self.results)


E2E_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "qc_mb": "MB",
             "t_count": "gates", "t_depth": "layers", "depth": "layers",
             "cnot_count": "gates", "width": "qubits"}


def end_to_end(rounds: list[Round]) -> dict:
    """Each job's median over the rounds, summed over jobs (the largest
    for peak RSS).  Reports and files are the same in every round."""
    per_job = list(zip(*(r.results for r in rounds)))
    med = lambda key: [statistics.median(r[key] for r in runs) for runs in per_job]
    reports = [rep for _, rep in rounds[0].reports]
    sums = lambda key: sum(rep[key] for rep in reports)
    return {
        "wall_s": sum(med("wall")),
        "setup_s": sum(med("setup")),
        "peak_rss_mb": max(med("rss")),
        "qc_mb": sum(r.get("qc_bytes", 0) for r in rounds[0].results) / 1e6,
        "t_count": sums("t_count"),
        "t_depth": sums("t_depth"),
        "depth": sums("depth"),
        "cnot_count": sum(rep["counts"]["cnot"] for rep in reports),
        "width": sums("width"),
    }


def run_rounds(jobs, tmp, seed, seconds, trace) -> list[Round]:
    """Whole rounds whose jobs' wall time comes nearest to ``seconds``:
    another round starts while it would end closer to ``seconds`` than
    stopping would, judged by the mean round so far.  At least one
    round; with ``trace``, untraced and traced rounds alternate, at
    least one each."""
    first: dict = {}
    rounds = [Round(jobs, tmp, False, seed, first)]
    while True:
        wall = sum(r.wall for r in rounds)
        if wall + wall / len(rounds) / 2 >= seconds and not (trace and len(rounds) < 2):
            return rounds
        rounds.append(Round(jobs, tmp, trace and len(rounds) % 2 == 1, seed, first))


# ----------------------------------------------------------------------
# Per-module metrics
# ----------------------------------------------------------------------

SELF_TIMES = {
    "circuit_ir.metrics_s": "circuit_ir.metrics",
    "circuit_ir.decompose_s": "circuit_ir.decompose",
    "edgecolor.color_s": "edgecolor.color",
    "linmaps.build_s": "linmaps.build",
    "fieldsynth.emit_s": "fieldsynth.emit",
    "pointaddsynth.self_s": "pointaddsynth.synth",
    "pointaddsynth.multiplier_report_s": "pointaddsynth.multiplier_report",
    "pointaddsynth.bounds_s": "pointaddsynth.bounds",
    "pointaddsynth.verify_s": "pointaddsynth.verify",
    "qcformat.write_s": "qcformat.write",
    "cli.report_s": "cli.report",
    "gf2field.parse_s": "gf2field.parse",
    "gf2field.solve_quadratic_s": "gf2field.solve_quadratic",
    "ecoracle.sample_s": "ecoracle.sample",
    "ecoracle.oracle_s": "ecoracle.oracle",
    "revsim.compile_s": "revsim.compile",
    "revsim.run_s": "revsim.run",
}
COUNTS = ("circuit_ir.metrics_calls", "circuit_ir.gates_scored", "edgecolor.edges",
          "edgecolor.colors", "linmaps.weight", "fieldsynth.gates", "qcformat.bytes",
          "gf2field.solve_quadratic_calls", "ecoracle.cases", "revsim.gate_evals")
RSS = ("rss.after_synth_mb", "rss.after_write_mb", "rss.after_decompose_mb")


def per_module(plain: list[Round], traced: list[Round]) -> dict:
    """Per-module figures per round, averaged over the traced rounds."""
    k = len(traced)
    jobs = [r for rnd in traced for r in rnd.results if r["trace"]]
    m: dict[str, tuple] = {}
    for metric, span in SELF_TIMES.items():
        m[metric] = (sum(j["trace"]["self_s"].get(span, 0.0) for j in jobs) / k, "s")
    for name in COUNTS:
        total = sum(j["trace"]["counts"].get(name, 0) for j in jobs)
        m[name] = (total // k if total % k == 0 else total / k,
                   "bytes" if name == "qcformat.bytes" else "count")
    for name in RSS:
        m[name] = (max((j["trace"]["rss"].get(name, 0.0) for j in jobs), default=0.0), "MB")
    # Exhaustive verify jobs draw no samples, so the base is the cases
    # of the sampled jobs.
    sampled = [j["trace"]["counts"] for j in jobs if not j["job"].exhaustive]
    samples = sum(c.get("ecoracle.samples", 0) for c in sampled)
    cases = sum(c.get("ecoracle.cases", 0) for c in sampled)
    m["ecoracle.samples_per_case"] = (samples / cases if cases else 0.0, "ratio")

    blocks: dict = {}
    for job, report in traced[0].reports:
        check.block_figures(report, check.block_reference(job), blocks)
    for label in ref.LINEAR_LABELS:
        cnots, w, depth, delta = blocks.get(label, (0, 0, 0, 0))
        m[f"block.{label}.cnots"] = (cnots, "count")
        m[f"block.{label}.depth"] = (depth, "layers")
        m[f"block.{label}.cnots_over_weight"] = (cnots / w if w else 0.0, "ratio")
        m[f"block.{label}.depth_over_delta"] = (depth / delta if delta else 0.0, "ratio")
    for label in ("M", "IM"):
        m[f"block.{label}.depth"] = (blocks.get(label, (0, 0, 0, 0))[2], "layers")

    verify = [r for rnd in plain for r in rnd.results if "cases" in r]
    verify_wall = sum(r["wall"] for r in verify)
    m["verify_cases_per_s"] = (sum(r["cases"] for r in verify) / verify_wall
                               if verify_wall else 0.0, "cases/s")
    m["trace.overhead_s"] = (statistics.median(r.wall for r in traced)
                             - statistics.median(r.wall for r in plain), "s")
    return {name: {"value": v, "unit": u} for name, (v, u) in m.items()}


def write_trace(path: Path, workload: str, seed: int, traced: list[Round]):
    jobs = [{"round": n, "argv": r["job"].argv(Path("out.qc")), "wall_s": r["wall"],
             "peak_rss_mb": r["rss"], "self_s": r["trace"]["self_s"],
             "counts": r["trace"]["counts"], "spans": r["trace"]["spans"]}
            for n, rnd in enumerate(traced) for r in rnd.results if r["trace"]]
    path.write_text(json.dumps({"workload": workload, "seed": seed,
                                "span": ["name", "start", "end", "parent"],
                                "jobs": jobs}))


# ----------------------------------------------------------------------


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "ecadd" / "cli.py").is_file():
        print(f"error: no ecadd sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    jobs = WORKLOADS[args.workload](random.Random(args.seed))
    OUT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="qc-", dir=OUT))
    try:
        rounds = run_rounds(jobs, tmp, args.seed, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    plain = [r for r in rounds if not r.trace]
    traced = [r for r in rounds if r.trace]

    problems = [p for r in rounds for p in r.problems]
    for p in problems[:20]:
        print(f"check failed: {p}", file=sys.stderr)
    if args.trace:
        metrics = per_module(plain, traced)
        write_trace(OUT / f"trace-{args.workload}-seed{args.seed}.json",
                    args.workload, args.seed, traced)
    else:
        metrics = {name: {"value": value, "unit": E2E_UNITS[name]}
                   for name, value in end_to_end(plain).items()}
    result = {
        "correct": not problems,
        "attempted": sum(len(r.results) for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": metrics,
    }
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

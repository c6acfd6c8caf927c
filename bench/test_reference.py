"""Tests of the benchmark's own reference and output checks.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import itertools
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import check
import reference as ref
from run import ROOT, Job


def trial_division_irreducible(f: int) -> bool:
    n = f.bit_length() - 1
    return n >= 1 and all(ref.pmod(f, g) for g in range(2, 1 << (n // 2 + 1))
                          if g.bit_length() - 1 >= 1)


def test_irreducibility_matches_trial_division():
    for f in range(2, 1 << 10):
        assert ref.is_irreducible(f) == trial_division_irreducible(f), f


def test_first_irreducible_of_small_degree():
    assert [ref.poly_text(ref.first_irreducible(n)) for n in (2, 3, 4, 5)] == \
        ["1+x+x^2", "1+x+x^3", "1+x+x^4", "1+x^2+x^5"]


@pytest.mark.parametrize("poly", ["1+x^2+x^5", "1+x^3+x^6+x^7+x^163"])
def test_field_axioms(poly):
    F = ref.Field(ref.parse_poly(poly))
    rng = random.Random(3)
    for _ in range(50):
        a, b, c = (rng.getrandbits(F.n) for _ in range(3))
        assert F.mul(a, b) == F.mul(b, a)
        assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
        assert F.mul(a, b ^ c) == F.mul(a, b) ^ F.mul(a, c)
        if a:
            assert F.mul(a, F.inv(a)) == 1


def apply(cols, v):
    out = 0
    for i, col in enumerate(cols):
        if v >> i & 1:
            out ^= col
    return out


def test_block_matrices_are_the_field_maps():
    F = ref.Field(ref.parse_poly("1+x^5+x^7+x^12+x^283"))
    rng = random.Random(4)
    sq, sr = ref.squaring_columns(F), ref.sqrt_columns(F)
    c = rng.getrandbits(F.n)
    for _ in range(20):
        v = rng.getrandbits(F.n)
        assert apply(sq, v) == F.sqr(v)
        assert F.sqr(apply(sr, v)) == v
        assert apply(ref.scaled_columns(F, c, sq), v) == F.mul(c, F.sqr(v))


def test_max_degree_counts_rows_and_columns():
    assert ref.max_degree([0b111, 0b001, 0b001]) == 3  # row 0 has 3 entries
    assert ref.max_degree([0b011, 0, 0]) == 2          # column 0 has 2
    assert ref.max_degree([0, 0]) == 0


def test_mixed_addition_agrees_with_the_chord_rule():
    F = ref.Field(ref.parse_poly("1+x^3+x^17"))
    rng = random.Random(5)
    for _ in range(20):
        a2, a6 = rng.getrandbits(F.n), rng.randrange(1, 1 << F.n)
        p1 = ref.random_point(F, a2, a6, rng)
        p2 = ref.random_point(F, a2, a6, rng)
        if p1[0] == p2[0]:
            continue
        lam = rng.randrange(1, 1 << F.n)
        X3, Y3, Z3 = ref.ld_mixed_add(F, a2, *p2, F.mul(p1[0], lam),
                                      F.mul(p1[1], F.sqr(lam)), lam)
        zi = F.inv(Z3)
        p3 = (F.mul(X3, zi), F.mul(Y3, F.sqr(zi)))
        assert p3 == ref.affine_add(F, a2, p1, p2)
        assert ref.on_curve(F, a2, a6, *p3)


def test_expected_exhaustive_count_matches_brute_force():
    """(affine points - |{P2, -P2}|) (2^n - 1) against a scan of every
    projective triple, as the verify command's exhaustive mode sees it."""
    F = ref.Field(ref.first_irreducible(3))
    rng = random.Random(6)
    for a2, a6 in ((0, 1), (1, 1), (5, 3)):
        for x2, y2 in rng.sample(ref.affine_points(F, a2, a6), 2):
            job = Job("verify", ref.poly_text(F.f), a2, a6, x2, y2, exhaustive=True)
            count = 0
            for X, Y, Z in itertools.product(range(8), range(8), range(1, 8)):
                lhs = F.sqr(Y) ^ F.mul(F.mul(X, Y), Z)
                rhs = (F.mul(F.mul(F.sqr(X), X), Z) ^ F.mul(F.mul(a2, F.sqr(X)), F.sqr(Z))
                       ^ F.mul(a6, F.sqr(F.sqr(Z))))
                if lhs != rhs:
                    continue
                zi = F.inv(Z)
                x, y = F.mul(X, zi), F.mul(Y, F.sqr(zi))
                count += (x, y) not in ((x2, y2), (x2, x2 ^ y2))
            assert check.expected_cases(job) == count


def test_interpreter_expands_subcircuits_and_simulates():
    text = """.v a b c
.i a b c
.o a b c

BEGIN AND
tof a b c
END AND

BEGIN
AND
tof a
AND
END
"""
    prog = ref.QcProgram(text.splitlines())
    assert prog.counts() == {"toffoli": 2, "not": 1}
    lanes = 4  # all four values of (a, b)
    out = prog.simulate([0b1010, 0b1100, 0], lanes)
    # c = (a AND b) XOR (NOT a AND b) = b
    assert out == [0b0101, 0b1100, 0b1100]


def synth(tmp_path: Path, job: Job) -> tuple[dict, Path]:
    qc = tmp_path / "c.qc"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-m", "ecadd.cli"] + job.argv(qc),
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(qc.with_suffix(".report.json").read_text()), qc


def small_job(**kw) -> Job:
    F = ref.Field(ref.parse_poly("1+x^2+x^5"))
    x2, y2 = ref.random_point(F, 1, 1, random.Random(7))
    return Job("synth", ref.poly_text(F.f), 1, 1, x2, y2, **kw)


@pytest.mark.parametrize("decompose", [False, True])
def test_checks_pass_on_a_written_circuit(tmp_path, decompose):
    job = small_job(recheck=not decompose, decompose=decompose)
    report, qc = synth(tmp_path, job)
    assert check.check_synth(job, report, qc, seed=1) == []


@pytest.mark.parametrize("kind", ["tof a b c", "tof a b"])
def test_checks_fail_on_one_corrupted_gate_line(tmp_path, kind):
    """Retarget one gate line of the written .qc: the counts still match
    the report, so only the simulation can catch it."""
    job = small_job()
    report, qc = synth(tmp_path, job)
    lines = qc.read_text().splitlines()
    arity = kind.count(" ")
    k = next(i for i, line in enumerate(lines)
             if line.startswith("tof ") and line.count(" ") == arity)
    parts = lines[k].split()
    parts[-1] = next(w for w in ("Y3_0", "Y3_1") if w not in parts)
    lines[k] = " ".join(parts)
    qc.write_text("\n".join(lines) + "\n")
    problems = check.check_synth(job, report, qc, seed=1)
    assert problems and all(".qc has" not in p for p in problems)


def test_checks_fail_when_a_report_figure_is_off(tmp_path):
    job = small_job()
    report, qc = synth(tmp_path, job)
    report["counts"]["cnot"] += 1
    assert any(p.startswith("cnot") for p in check.check_synth(job, report, qc, seed=1))

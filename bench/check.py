"""Checks of ecadd's outputs against bench/reference.py.

Every check returns a list of problems; an empty list means the output
passed.  Expected values come from independent computation or from
properties the construction must have, never from stored output.
"""

from __future__ import annotations

import functools
import random

import reference as ref

REGISTERS = ("X1", "Y1", "Z1", "C", "Z3", "X3", "Bsq", "D", "Cp", "Z3p", "Y3")
SCRATCH = ("C", "Bsq", "D", "Cp", "Z3p")
KINDS = ("not", "cnot", "toffoli", "h", "t", "t_dagger", "s", "s_dagger")
LANES = 64


@functools.lru_cache(maxsize=None)
def block_reference(job) -> dict:
    """Weight and max degree of each linear block's matrix for this job
    (a hashable Job; computed once per job)."""
    F = ref.Field(ref.parse_poly(job.poly))
    mats = ref.block_matrices(F, job.a2, job.x2, job.y2)
    return {k: (ref.weight(m), ref.max_degree(m)) for k, m in mats.items()}


def closed_form(job, blocks: dict) -> dict:
    f = ref.parse_poly(job.poly)
    return ref.closed_form(f.bit_length() - 1, f.bit_count(),
                           {k: w for k, (w, _) in blocks.items()})


def check_report(report: dict, want: dict) -> list[str]:
    """Width, Toffoli and T figures and the CNOT closed form."""
    got = {
        "width": report["width"],
        "toffoli": report["toffoli_count"],
        "t_count": report["t_count"],
        "cnot": report["counts"]["cnot"],
        "prior_t_count": report["prior_reference"]["t_count"],
    }
    problems = [f"{k}: report {got[k]}, expected {want[k]}"
                for k in got if got[k] != want[k]]
    if not report["t_count"] < 0.39 * want["prior_t_count"]:
        problems.append(f"T-count {report['t_count']} is not under 0.39 of "
                        f"the prior {want['prior_t_count']}")
    return problems


def check_qc_counts(job, report: dict, prog: ref.QcProgram, want: dict) -> list[str]:
    """Gate counts of the written file against the report, and for a
    Clifford+T file the Toffoli-free T and H figures."""
    counts = prog.counts()
    expect = report["decomposed"]["counts"] if job.decompose else report["counts"]
    problems = [f"{k}: .qc has {counts.get(k, 0)}, report says {expect[k]}"
                for k in KINDS if counts.get(k, 0) != expect[k]]
    if len(prog.wires) != want["width"]:
        problems.append(f".qc declares {len(prog.wires)} wires, not {want['width']}")
    if job.decompose:
        t = counts["t"] + counts["t_dagger"]
        if counts["toffoli"] or t != want["t_count"] or counts["h"] != want["h"]:
            problems.append(f"Clifford+T file: toffoli {counts['toffoli']}, "
                            f"T+T* {t} (want {want['t_count']}), "
                            f"H {counts['h']} (want {want['h']})")
    return problems


def simulate(job, prog: ref.QcProgram, inputs: list[tuple[int, int, int]]
             ) -> tuple[list[str], list[tuple[int, int, int]]]:
    """Run LD inputs through the file; return problems and (X3, Y3, Z3)."""
    n = ref.parse_poly(job.poly).bit_length() - 1
    regs = prog.registers()
    if sorted(regs) != sorted(REGISTERS) or any(len(regs[r]) != n for r in REGISTERS):
        return [f"unexpected registers {sorted(regs)}"], []
    if prog.outputs != prog.wires:
        return ["the .o line permutes the wires"], []
    lanes = len(inputs)
    values = [0] * len(prog.wires)
    for k, name in enumerate(("X1", "Y1", "Z1")):
        ref.pack_register(values, regs[name], [p[k] for p in inputs])
    out = prog.simulate(values, lanes)
    got = {r: ref.unpack_register(out, regs[r], lanes) for r in REGISTERS}
    F = ref.Field(ref.parse_poly(job.poly))
    problems = []
    for k, (X1, Y1, Z1) in enumerate(inputs):
        tag = f"input ({X1:#x}, {Y1:#x}, {Z1:#x})"
        if (got["X1"][k], got["Y1"][k], got["Z1"][k]) != (X1, Y1, Z1):
            problems.append(f"{tag}: X1, Y1, Z1 not restored")
        dirty = [r for r in SCRATCH if got[r][k]]
        if dirty:
            problems.append(f"{tag}: scratch {dirty} not cleared")
        want = ref.ld_mixed_add(F, job.a2, job.x2, job.y2, X1, Y1, Z1)
        if (got["X3"][k], got["Y3"][k], got["Z3"][k]) != want:
            problems.append(f"{tag}: X3, Y3, Z3 differ from the formula")
        if len(problems) > 4:
            break
    outputs = list(zip(got["X3"], got["Y3"], got["Z3"]))
    return problems, outputs


def random_inputs(job, seed: int) -> list[tuple[int, int, int]]:
    """Seeded random (X1, Y1, Z1): the formula is a polynomial map, so
    the circuit must agree with it on every input, on the curve or not."""
    n = ref.parse_poly(job.poly).bit_length() - 1
    rng = random.Random(seed)
    return [(rng.getrandbits(n), rng.getrandbits(n), rng.getrandbits(n))
            for _ in range(LANES)]


def curve_inputs(job, seed: int, count: int = 16):
    """Seeded generic-case inputs (P1 on the curve, P1 != O, +-P2) as LD
    representatives (x l, y l^2, l), with their affine points."""
    F = ref.Field(ref.parse_poly(job.poly))
    rng = random.Random(seed)
    if F.n <= 8:
        pool = [p for p in ref.affine_points(F, job.a2, job.a6)
                if p[0] != job.x2]
        points = [rng.choice(pool) for _ in range(count)] if pool else []
    else:
        points = []
        while len(points) < count:
            p = ref.random_point(F, job.a2, job.a6, rng)
            if p[0] != job.x2:
                points.append(p)
    inputs = []
    for x, y in points:
        lam = rng.randrange(1, 1 << F.n)
        inputs.append((F.mul(x, lam), F.mul(y, F.sqr(lam)), lam))
    return points, inputs


def check_synth(job, report: dict, qc_path, seed: int) -> list[str]:
    """Every check of one ``synth`` job's report and .qc file."""
    want = closed_form(job, block_reference(job))
    problems = check_report(report, want)
    prog = ref.QcProgram.read(qc_path, keep_gates=not job.decompose)
    problems += check_qc_counts(job, report, prog, want)
    if job.decompose or problems:
        return problems
    found, _ = simulate(job, prog, random_inputs(job, seed))
    problems += found
    if job.recheck:
        points, inputs = curve_inputs(job, seed)
        found, outputs = simulate(job, prog, inputs)
        problems += found
        F = ref.Field(ref.parse_poly(job.poly))
        for p1, (X3, Y3, Z3) in zip(points, outputs):
            zi = F.inv(Z3)
            got = (F.mul(X3, zi), F.mul(Y3, F.sqr(zi)))
            if got != ref.affine_add(F, job.a2, p1, (job.x2, job.y2)):
                problems.append(f"P1={p1}: output is not P1 + P2")
                break
    return problems


def expected_cases(job) -> int:
    """Cases a passing ``verify`` run must report."""
    if not job.exhaustive:
        return job.samples
    F = ref.Field(ref.parse_poly(job.poly))
    points = ref.affine_points(F, job.a2, job.a6)
    excluded = {(job.x2, job.y2), (job.x2, job.x2 ^ job.y2)}
    return (len(points) - len(excluded)) * ((1 << F.n) - 1)


def block_figures(report: dict, blocks: dict, acc: dict):
    """Add one report's per-block CNOTs and depth, with the reference
    weight and max degree, into ``acc[label] = [cnots, weight, depth, delta]``."""
    for sub in report["subcircuits"]:
        label = sub["label"]
        w, d = blocks.get(label, (0, 0))
        row = acc.setdefault(label, [0, 0, 0, 0])
        row[0] += sub["counts"]["cnot"]
        row[1] += w
        row[2] += sub["depth"]
        row[3] += d

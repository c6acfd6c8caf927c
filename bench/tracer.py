"""Spans around calls into ecadd's modules, recorded from outside them.

A span is (name, start, end, parent index), times from time.monotonic().
Spans stay in memory and are handed back once, when the job ends.

ecadd binds names with ``from ... import``, so each wrapper is installed
where the caller looks the name up (``ecadd.pointaddsynth.metrics``, not
only ``ecadd.circuit_ir.metrics``).  One wrapper object is shared by
every place a function is looked up from.
"""

from __future__ import annotations

import time
from collections import Counter


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MB.

    VmHWM, not getrusage's ru_maxrss: Linux carries ru_maxrss over from
    the spawning process across exec, so a child started by a large
    parent would report the parent's peak."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) * 1024 / 1e6
    raise RuntimeError("no VmHWM line in /proc/self/status")


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.rss: dict[str, float] = {}
        self._stack: list[int] = []

    def wrap(self, name: str, fn, after=None):
        """``fn`` recorded as a span; ``after(args, result)`` then counts."""
        spans, stack = self.spans, self._stack
        clock = time.monotonic

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx] = (name, start, clock(), parent)
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    def note_rss(self, key: str):
        self.rss[key] = max(self.rss.get(key, 0.0), peak_rss_mb())

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, minus the time of the spans inside."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = {}
        for (name, start, end, _), inner in zip(self.spans, child):
            out[name] = out.get(name, 0.0) + (end - start - inner)
        return out


def install(tracer: Tracer):
    """Wrap the public functions of each ecadd module at their call sites."""
    from ecadd import cli, ecoracle, fieldsynth, gf2field, linmaps
    from ecadd import pointaddsynth as pas
    from ecadd import edgecolor

    c = tracer.counts

    def put(name, sites, after=None):
        wrapper = tracer.wrap(name, getattr(*sites[0]), after)
        for module, attr in sites:
            setattr(module, attr, wrapper)

    def scored(args, report):
        c["circuit_ir.metrics_calls"] += 1
        c["circuit_ir.gates_scored"] += args[0].num_gates

    def colored(args, coloring):
        c["edgecolor.edges"] += len(args[0].edges)
        c["edgecolor.colors"] += coloring.num_colors

    def built(args, matrix):
        c["linmaps.weight"] += matrix.weight

    def emitted(count):
        def after(args, result):
            c["fieldsynth.gates"] += count(args, result)
        return after

    def written(args, text):
        c["qcformat.bytes"] += len(text)
        tracer.note_rss("rss.after_write_mb")

    def verified(args, result):
        c["ecoracle.cases"] += result.cases

    def sampled(args, point):
        c["ecoracle.samples"] += 1

    def solved(args, z):
        c["gf2field.solve_quadratic_calls"] += 1

    put("circuit_ir.metrics", [(pas, "metrics")], scored)
    put("circuit_ir.decompose", [(pas, "decompose_toffoli")],
        lambda a, r: tracer.note_rss("rss.after_decompose_mb"))
    put("edgecolor.color", [(fieldsynth, "color_edges")], colored)
    put("edgecolor.color", [(fieldsynth, "graph_of_matrix")])
    edgecolor.EdgeColoring.layers = tracer.wrap(
        "edgecolor.color", edgecolor.EdgeColoring.layers)
    for attr in ("matrix_of_squaring", "matrix_of_sqrt", "matrix_of_const_mul"):
        put("linmaps.build", [(pas, attr)], built)
    linmaps.BinMatrix.__matmul__ = tracer.wrap(
        "linmaps.build", linmaps.BinMatrix.__matmul__, built)
    put("fieldsynth.emit", [(pas, "synth_linear")],
        emitted(lambda a, r: a[1].weight))
    put("fieldsynth.emit", [(pas, "synth_add_inplace")],
        emitted(lambda a, r: a[1].n))
    put("fieldsynth.emit", [(pas, "synth_mult"), (fieldsynth, "synth_mult")],
        emitted(lambda a, r: len(r)))
    put("pointaddsynth.synth", [(cli, "synth_point_add")],
        lambda a, r: tracer.note_rss("rss.after_synth_mb"))
    put("pointaddsynth.multiplier_report",
        [(pas, "multiplier_report"), (cli, "multiplier_report")])
    put("pointaddsynth.bounds", [(pas, "check_bounds")])
    put("pointaddsynth.verify", [(cli, "verify_point_add")], verified)
    put("qcformat.write", [(cli, "write_qc")], written)
    put("cli.report", [(cli, "report_to_json")])
    put("gf2field.parse", [(cli, "parse_element_text")])
    poly = gf2field.IrreduciblePoly
    poly.from_string = classmethod(
        tracer.wrap("gf2field.parse", poly.from_string.__func__))
    put("gf2field.solve_quadratic", [(ecoracle, "solve_quadratic")], solved)
    put("ecoracle.sample", [(pas, "random_point")], sampled)
    for attr in ("aldaoud_madd", "affine_add", "affine_to_ld", "ld_to_affine",
                 "on_curve_ld", "on_curve_affine"):
        put("ecoracle.oracle", [(pas, attr)])

    compiled: dict[int, int] = {}

    class TracedSimulator(pas.Simulator):
        pass

    def compile_done(args, result):
        compiled[id(args[0])] = args[1].num_gates

    def ran(args, state):
        c["revsim.gate_evals"] += compiled[id(args[0])]

    TracedSimulator.__init__ = tracer.wrap(
        "revsim.compile", pas.Simulator.__init__, compile_done)
    TracedSimulator.run = tracer.wrap("revsim.run", pas.Simulator.run, ran)
    pas.Simulator = TracedSimulator

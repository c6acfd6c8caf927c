""".qc text format: deterministic writing, parsing, and round trips."""

import pathlib
import tracemalloc
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    ARITY,
    add_gates,
    block_spans,
    gate_tuples,
    random_classical_circuit,
    ref_write_qc,
)
from ecadd.circuit_ir import (
    CNOT,
    H,
    KIND_NAMES,
    NOT,
    S,
    S_DAGGER,
    T,
    T_DAGGER,
    TOFFOLI,
    TOFFOLI_TEMPLATE,
    Circuit,
    decompose_toffoli,
    metrics,
)
from ecadd.qcformat import (
    SLICE_GATES,
    QcSyntaxError,
    parse_qc,
    write_qc,
)
from ecadd.revsim import Simulator

GOLDEN = pathlib.Path(__file__).parent / "golden"
ONE_WIRE_TOKENS = {H: "H", T: "T", T_DAGGER: "T*", S: "S", S_DAGGER: "S*"}


def small_circuit():
    c = Circuit()
    for nm in ("a", "b", "c"):
        c.add_wire(nm)
    with c.group("S"):
        add_gates(c, (CNOT, 0, 1))
    add_gates(c, (TOFFOLI, 0, 1, 2), (NOT, 2))
    return c


@st.composite
def writer_circuits(draw):
    """A random circuit over all eight gate kinds, with empty groups (a
    trailing one included), gates outside any group, repeated labels,
    labels that look like a repeated label's suffixed name and the
    keywords BEGIN and END as labels."""
    width = draw(st.integers(1, 5))
    c = Circuit()
    for i in range(width):
        c.add_wire(f"w{i}")
    kinds = [k for k in range(len(KIND_NAMES)) if ARITY[k] <= width]

    def gate():
        kind = draw(st.sampled_from(kinds))
        wires = draw(st.permutations(range(width)))[:ARITY[kind]]
        add_gates(c, (kind, *wires))

    for _ in range(draw(st.integers(0, 20))):
        if draw(st.booleans()):
            gate()
        else:
            labels = ("S", "M", "IM", "a-2", "S_2", "a_2", "S_3", "BEGIN",
                      "END")
            with c.group(draw(st.sampled_from(labels))):
                for _ in range(draw(st.integers(0, 4))):
                    gate()
    if draw(st.booleans()):
        with c.group("S"):
            pass
    return c


class TestWriter:
    @settings(max_examples=300, deadline=None)
    @given(writer_circuits())
    def test_matches_reference_writer(self, c):
        assert write_qc(c) == ref_write_qc(c).encode()
        assert write_qc(c, clifford_t=True) == \
            ref_write_qc(decompose_toffoli(c)).encode()

    def test_gate_lines_and_headers(self):
        text = write_qc(small_circuit()).decode()
        lines = text.splitlines()
        assert lines[0] == ".v a b c"
        assert lines[1] == ".i a b c"
        assert lines[2] == ".o a b c"
        assert lines[3] == ""
        assert "tof a b" in lines
        assert "tof a b c" in lines
        assert "tof c" in lines
        assert text.endswith("END\n")
        assert "\r" not in text

    def test_single_wire_gate_names(self):
        c = Circuit()
        c.add_wire("q")
        for kind, token in ((3, "H"), (4, "T"), (5, "T*"), (6, "S"), (7, "S*")):
            add_gates(c, (kind, 0))
        text = write_qc(c).decode()
        for token in ("H q", "T q", "T* q", "S q", "S* q"):
            assert token in text.splitlines()

    def test_duplicate_group_names_uniquified(self):
        c = Circuit()
        c.add_wire("a")
        c.add_wire("b")
        for _ in range(3):
            with c.group("S"):
                add_gates(c, (CNOT, 0, 1))
        text = write_qc(c).decode()
        for name in ("BEGIN S", "BEGIN S_2", "BEGIN S_3"):
            assert name in text.splitlines()

    def test_suffixed_label_after_repeats_round_trips(self):
        # Labels A, A, A_2: the second A takes A_2, so the label A_2
        # takes its own first free suffix, A_2_2, rather than defining
        # A_2 again.
        c = Circuit()
        c.add_wire("a")
        for label in ("A", "A", "A_2"):
            with c.group(label):
                add_gates(c, (NOT, 0))
        text = write_qc(c).decode()
        begins = [ln for ln in text.splitlines() if ln.startswith("BEGIN ")]
        assert begins == ["BEGIN A", "BEGIN A_2", "BEGIN A_2_2"]
        back = parse_qc(text)
        assert [label for label, _, _ in block_spans(back)] == \
            ["A", "A_2", "A_2_2"]
        assert gate_tuples(back.runs) == gate_tuples(c.runs)

    def test_keyword_labels_round_trip(self):
        # A block named END or BEGIN would end or open a block where the
        # main block invokes it, so both keywords take the G_ prefix.
        c = Circuit()
        c.add_wire("a")
        c.add_wire("b")
        for label in ("END", "BEGIN", "G_END"):
            with c.group(label):
                add_gates(c, (CNOT, 0, 1))
        text = write_qc(c).decode()
        begins = [ln for ln in text.splitlines() if ln.startswith("BEGIN ")]
        assert begins == ["BEGIN G_END", "BEGIN G_BEGIN", "BEGIN G_END_2"]
        back = parse_qc(text)
        assert [label for label, _, _ in block_spans(back)] == \
            ["G_END", "G_BEGIN", "G_END_2"]
        assert gate_tuples(back.runs) == gate_tuples(c.runs)

    def test_clifford_t_toffoli_is_the_template(self):
        c = Circuit()
        for nm in ("a", "b", "c"):
            c.add_wire(nm)
        add_gates(c, (TOFFOLI, 0, 1, 2))
        roles = "abc"
        expected = [
            f"tof {roles[e[1]]} {roles[e[2]]}" if e[0] == CNOT
            else f"{ONE_WIRE_TOKENS[e[0]]} {roles[e[1]]}"
            for e in TOFFOLI_TEMPLATE
        ]
        lines = write_qc(c, clifford_t=True).decode().splitlines()
        body = lines[lines.index("BEGIN") + 1:lines.index("END")]
        assert len(expected) == 15
        assert body == expected

    def test_empty_group_still_emitted(self):
        c = Circuit()
        c.add_wire("a")
        with c.group("xyZ"):
            pass
        add_gates(c, (NOT, 0))
        text = write_qc(c).decode()
        lines = text.splitlines()
        assert "BEGIN xyZ" in lines and "END xyZ" in lines
        main = lines[lines.index("BEGIN"):]
        assert "xyZ" in main

    def test_deterministic(self, rng):
        for _ in range(20):
            c = random_classical_circuit(rng)
            assert write_qc(c) == write_qc(c)

    def test_label_sanitized(self):
        c = Circuit()
        c.add_wire("a")
        with c.group("a-2 block!"):
            add_gates(c, (NOT, 0))
        text = write_qc(c).decode()
        assert "BEGIN a_2_block_" in text


# Run lengths at the writer's slice boundaries: none, one gate, one
# short of a slice, a slice, one past it, and three slices and one gate.
SLICE_RUNS = (0, 1, SLICE_GATES - 1, SLICE_GATES, SLICE_GATES + 1,
              3 * SLICE_GATES + 1)


def append_run(c: Circuit, count: int, start: int):
    """Append ``count`` gates cycling through the eight kinds, on wires
    that rotate with the gate index ``start + i``."""
    width = c.width
    for i in range(start, start + count):
        kind = i % len(KIND_NAMES)
        add_gates(c, (kind, *((i + r) % width for r in range(ARITY[kind]))))


def sliced_circuit(grouped: bool, runs) -> Circuit:
    """Each run as a run of gates, followed when ``grouped`` by a group
    of the same length."""
    c = Circuit()
    for i in range(5):
        c.add_wire(f"w{i}")
    done = 0
    for count in runs:
        append_run(c, count, done)
        done += count
        if grouped:
            with c.group("B"):
                append_run(c, count, done)
            done += count
    return c


class TestSlices:
    """The writer renders each span SLICE_GATES at a time; the text must
    not depend on where the slices fall."""

    @pytest.mark.parametrize("grouped, runs", [
        (True, SLICE_RUNS),
        *((False, (r,)) for r in SLICE_RUNS),
    ])
    def test_runs_across_slice_boundaries(self, grouped, runs):
        c = sliced_circuit(grouped, runs)
        assert write_qc(c) == ref_write_qc(c).encode()
        assert write_qc(c, clifford_t=True) == \
            ref_write_qc(decompose_toffoli(c)).encode()

    def test_text_is_held_once(self):
        # 40k Toffolis on 32 wires: about 12 MB of Clifford+T text.  The
        # writer's traced peak is its one buffer plus a slice, not the
        # text twice.
        c = Circuit()
        for i in range(32):
            c.add_wire(f"register_{i:02d}")
        ids = range(40_000)
        c.add_runs([(TOFFOLI, tuple(array("I", ((i + r) % 32 for i in ids))
                                    for r in (0, 1, 5)))])
        tracemalloc.start()
        try:
            data = write_qc(c, clifford_t=True)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(data) >= 10_000_000
        assert peak <= 1.3 * len(data)


class TestParser:
    def test_round_trip_small(self):
        c = small_circuit()
        back = parse_qc(write_qc(c).decode())
        assert back.wires == c.wires
        assert metrics(back).counts == metrics(c).counts
        for s in range(8):
            assert Simulator(back).run(s) == Simulator(c).run(s)

    def test_round_trip_random_circuits(self, rng):
        for _ in range(300):
            c = random_classical_circuit(rng)
            back = parse_qc(write_qc(c).decode())
            mc, mb = metrics(c), metrics(back)
            assert (mc.counts, mc.depth, mc.t_depth, mc.width) == \
                   (mb.counts, mb.depth, mb.t_depth, mb.width)
            sim_c, sim_b = Simulator(c), Simulator(back)
            for _ in range(10):
                s = rng.getrandbits(c.width)
                assert sim_c.run(s) == sim_b.run(s)

    def test_comments_and_blank_lines(self):
        text = (".v a b  # wires\n\n.i a b\n.o a b\n"
                "BEGIN\n# nothing yet\ntof a b\nEND\n")
        c = parse_qc(text)
        assert c.wires == ["a", "b"]
        assert c.num_gates == 1

    @pytest.mark.parametrize("text, lineno", [
        ("BEGIN\nEND\n", 1),                             # BEGIN before .v
        (".v a\n.q a\nBEGIN\nEND\n", 2),                 # unknown directive
        (".v a a\nBEGIN\nEND\n", 1),                     # repeated wire
        (".v a\n.i b\nBEGIN\nEND\n", 2),                 # undeclared input
        (".v a\nBEGIN\nBEGIN\nEND\nEND\n", 3),           # nested BEGIN
        (".v a\nEND\n", 2),                              # END without BEGIN
        (".v a\ntof a\n", 2),                            # gate outside block
        (".v a\nBEGIN\nzap a\nEND\n", 3),                # unknown gate
        (".v a\nBEGIN\ntof a a\nEND\n", 3),              # repeated wire in gate
        (".v a\nBEGIN\ntof b\nEND\n", 3),                # undeclared wire
        (".v a\nBEGIN\nNOSUCH\nEND\n", 3),               # undefined invocation
        (".v a\nBEGIN G\ntof a\nEND H\n", 4),            # END name mismatch
        (".v a\nBEGIN\ntof a\n", 3),                     # unterminated block
        (".v a\nBEGIN\nEND\nBEGIN G\ntof a\nEND G\n", 4),  # def after main
        (".v a b c d\nBEGIN\ntof a b c d\nEND\n", 3),    # tof of four wires
        (".v a\nBEGIN\ntof a\nH\nEND\n", 4),             # bare H
        (".v a b\nBEGIN\nT a b\nEND\n", 3),              # T of two wires
        # The same checks inside a subcircuit definition.
        (".v a\nBEGIN G\ntof a a\nEND G\nBEGIN\nEND\n", 3),
        (".v a\nBEGIN G\ntof a\ntof b\nEND G\nBEGIN\nEND\n", 4),
        (".v a\n\nBEGIN G\ntof a\nzap a\nEND G\nBEGIN\nEND\n", 5),
    ])
    def test_syntax_errors_carry_line_numbers(self, text, lineno):
        with pytest.raises(QcSyntaxError) as exc:
            parse_qc(text)
        assert exc.value.line == lineno

    def test_missing_v_line(self):
        with pytest.raises(QcSyntaxError):
            parse_qc("BEGIN\nEND\n")
        with pytest.raises(QcSyntaxError):
            parse_qc("# only a comment\n")

    def test_missing_main(self):
        with pytest.raises(QcSyntaxError):
            parse_qc(".v a\nBEGIN G\ntof a\nEND G\n")

    def test_redefined_subcircuit(self):
        text = ".v a\nBEGIN G\ntof a\nEND G\nBEGIN G\ntof a\nEND G\nBEGIN\nEND\n"
        with pytest.raises(QcSyntaxError):
            parse_qc(text)

    def test_invocation_becomes_group(self):
        text = (".v a b\n.i a b\n.o a b\n"
                "BEGIN SM\ntof a b\nEND SM\n"
                "BEGIN\nSM\ntof b a\nEND\n")
        c = parse_qc(text)
        assert block_spans(c) == [("SM", 0, 1)]
        assert c.num_gates == 2

    @pytest.mark.parametrize("line", [
        ".i b a", ".o b a", ".o a a", ".o a", ".i a b b",
    ])
    def test_io_lines_must_repeat_v(self, line):
        with pytest.raises(QcSyntaxError) as exc:
            parse_qc(f".v a b\n{line}\nBEGIN\nEND\n")
        assert exc.value.line == 2

    def test_io_lines_optional(self):
        c = parse_qc(".v a b\nBEGIN\ntof a b\nEND\n")
        assert c.wires == ["a", "b"]
        assert Simulator(c).run(0b01) == 0b11


class TestGolden:
    def test_toy_point_add_file_is_stable(self):
        from ecadd.ecoracle import AffinePoint, Curve
        from ecadd.gf2field import IrreduciblePoly
        from ecadd.pointaddsynth import synth_point_add

        fld = IrreduciblePoly.from_string("1+x")
        curve = Curve(fld.elem(1), fld.elem(1))
        p2 = AffinePoint(fld.elem(1), fld.elem(1))
        circ, _ = synth_point_add(curve, p2, allow_off_curve=True)
        golden = (GOLDEN / "toy_point_add.qc").read_text()
        assert write_qc(circ) == golden.encode()

    def test_golden_file_parses_and_has_block_labels(self):
        text = (GOLDEN / "toy_point_add.qc").read_text()
        c = parse_qc(text)
        names = [label for label, _, _ in block_spans(c)]
        for label in ("SM", "X", "M", "S", "a2", "xyZ", "IM", "IX",
                      "Ia2", "IS", "SR", "ISM"):
            assert any(nm == label or nm.startswith(label + "_")
                       for nm in names), label
        assert c.width == 11
        assert metrics(c).toffoli_count == 5

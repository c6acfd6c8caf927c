""".qc text format: deterministic writing, parsing, and round trips."""

import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_classical_circuit, ref_simulate, ref_write_qc
from ecadd.circuit_ir import (
    ARITY,
    CNOT,
    KIND_NAMES,
    NOT,
    T,
    TOFFOLI,
    Circuit,
    decompose_toffoli,
    inverse,
    metrics,
)
from ecadd.qcformat import (
    QcSemanticError,
    QcSyntaxError,
    circuit_from_qc,
    parse_qc,
    to_circuit,
    write_qc,
)
from ecadd.revsim import Simulator

GOLDEN = pathlib.Path(__file__).parent / "golden"


def small_circuit():
    c = Circuit()
    for nm in ("a", "b", "c"):
        c.add_wire(nm)
    with c.group("S"):
        c.append(CNOT, 0, 1)
    c.append(TOFFOLI, 0, 1, 2)
    c.append(NOT, 2)
    return c


@st.composite
def writer_circuits(draw):
    """A random circuit over all eight gate kinds, with nested groups,
    empty groups (a trailing one included), gates outside any group and
    repeated labels, optionally inverted and with a permuted output."""
    width = draw(st.integers(1, 5))
    c = Circuit()
    for i in range(width):
        c.add_wire(f"w{i}")
    kinds = [k for k in range(len(KIND_NAMES)) if ARITY[k] <= width]
    open_groups = 0
    for _ in range(draw(st.integers(0, 40))):
        op = draw(st.sampled_from(("gate", "gate", "begin", "end")))
        if op == "begin":
            c.begin_group(draw(st.sampled_from(("S", "M", "IM", "a-2"))))
            open_groups += 1
        elif op == "end" and open_groups:
            c.end_group()
            open_groups -= 1
        elif op == "gate":
            kind = draw(st.sampled_from(kinds))
            wires = draw(st.permutations(range(width)))[:ARITY[kind]]
            c.append(kind, *wires)
    for _ in range(open_groups):
        c.end_group()
    if draw(st.booleans()):
        c = inverse(c)
    if draw(st.booleans()):
        with c.group("S"):
            pass
    if draw(st.booleans()):
        c.out_permutation = draw(st.permutations(range(width)))
    return c


class TestWriter:
    @settings(max_examples=300, deadline=None)
    @given(writer_circuits())
    def test_matches_reference_writer(self, c):
        assert write_qc(c) == ref_write_qc(c)
        assert write_qc(c, group_as_subcircuits=False) == \
            ref_write_qc(c, group_as_subcircuits=False)
        assert write_qc(c, clifford_t=True) == ref_write_qc(decompose_toffoli(c))

    def test_gate_lines_and_headers(self):
        text = write_qc(small_circuit())
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
            c.append(kind, 0)
        text = write_qc(c)
        for token in ("H q", "T q", "T* q", "S q", "S* q"):
            assert token in text.splitlines()

    def test_duplicate_group_names_uniquified(self):
        c = Circuit()
        c.add_wire("a")
        c.add_wire("b")
        for _ in range(3):
            with c.group("S"):
                c.append(CNOT, 0, 1)
        text = write_qc(c)
        for name in ("BEGIN S", "BEGIN S_2", "BEGIN S_3"):
            assert name in text.splitlines()

    def test_empty_group_still_emitted(self):
        c = Circuit()
        c.add_wire("a")
        with c.group("xyZ"):
            pass
        c.append(NOT, 0)
        text = write_qc(c)
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
            c.append(NOT, 0)
        text = write_qc(c)
        assert "BEGIN a_2_block_" in text

    def test_flat_mode(self):
        text = write_qc(small_circuit(), group_as_subcircuits=False)
        assert "BEGIN S" not in text
        assert text.count("BEGIN") == 1


class TestParser:
    def test_round_trip_small(self):
        c = small_circuit()
        back = circuit_from_qc(write_qc(c))
        assert back.wires == c.wires
        assert metrics(back).counts == metrics(c).counts
        for s in range(8):
            assert Simulator(back).run(s) == Simulator(c).run(s)

    def test_round_trip_random_circuits(self, rng):
        for _ in range(300):
            c = random_classical_circuit(rng)
            if rng.random() < 0.25:
                perm = list(range(c.width))
                rng.shuffle(perm)
                c.out_permutation = perm
            back = circuit_from_qc(write_qc(c))
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
        doc = parse_qc(text)
        assert doc.variables == ("a", "b")
        assert len(doc.main) == 1

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
        c = to_circuit(parse_qc(text))
        assert [g.label for g in c.top_level_groups()] == ["SM"]
        assert c.num_gates == 2

    def test_output_permutation(self):
        text = ".v a b\n.i a b\n.o b a\nBEGIN\ntof a\nEND\n"
        c = circuit_from_qc(text)
        # Logical output 0 reads wire b: NOT on a lands in output bit 1.
        assert Simulator(c).run(0b00) == 0b10

    def test_bad_output_set_rejected(self):
        text = ".v a b\n.i a b\n.o a a\nBEGIN\nEND\n"
        with pytest.raises(QcSemanticError):
            circuit_from_qc(text)


class TestGolden:
    def test_toy_point_add_file_is_stable(self):
        from ecadd.ecoracle import AffinePoint, Curve
        from ecadd.gf2field import IrreduciblePoly
        from ecadd.pointaddsynth import SynthesisOptions, synth_point_add

        fld = IrreduciblePoly.from_string("1+x")
        curve = Curve(fld.elem(1), fld.elem(1))
        p2 = AffinePoint(fld.elem(1), fld.elem(1))
        circ, _ = synth_point_add(curve, p2,
                                  SynthesisOptions(allow_off_curve=True))
        golden = (GOLDEN / "toy_point_add.qc").read_text()
        assert write_qc(circ) == golden

    def test_golden_file_parses_and_has_block_labels(self):
        text = (GOLDEN / "toy_point_add.qc").read_text()
        doc = parse_qc(text)
        names = [s.name for s in doc.subcircuits]
        for label in ("SM", "X", "M", "S", "a2", "xyZ", "IM", "IX",
                      "Ia2", "IS", "SR", "ISM"):
            assert any(nm == label or nm.startswith(label + "_")
                       for nm in names), label
        c = to_circuit(doc)
        assert c.width == 11
        assert metrics(c).toffoli_count == 5

""".qc circuit text format: writer and parser.

Layout of a document::

    .v <wire names>
    .i <wire names>
    .o <wire names>

    BEGIN <NAME>
    <gate lines>
    END <NAME>

    BEGIN
    <gate lines and subcircuit invocations>
    END

Gate lines: ``tof t`` (NOT), ``tof c t`` (CNOT), ``tof c1 c2 t``
(Toffoli), and single-wire ``H``, ``T``, ``T*``, ``S``, ``S*``.  A bare
name inside the main block invokes a previously defined subcircuit.
Lines use LF endings; ``#`` starts a comment.  A circuit's inputs and
outputs are its wires in wire order, so ``.i`` and ``.o``, when present,
repeat the ``.v`` names in ``.v`` order.

The writer renders each labeled block of a circuit as a named
subcircuit.  A label that is not a name, or is one of the keywords
``BEGIN`` and ``END``, gets a ``G_`` prefix.  Block labels repeat (e.g.
several squaring blocks), so a name already taken gets the first free
``_2``, ``_3``, ... suffix, while the first occurrence keeps its name
verbatim.  The lines of a run of gates come from one comprehension
over its wire columns, each line one compiled f-string (a Toffoli's 15
Clifford+T lines, too).  ``write_qc`` returns the file's bytes,
rendered a slice of gates at a time into one buffer, so the text is
held once; ``parse_qc`` takes the decoded text and builds the circuit's
runs.
"""

from __future__ import annotations

import io
import re

from .circuit_ir import (
    CNOT,
    H,
    NOT,
    S,
    S_DAGGER,
    T,
    T_DAGGER,
    TOFFOLI,
    Circuit,
    runs_of,
)


class QcSyntaxError(ValueError):
    """Malformed .qc text; carries a 1-based line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


_ONE_WIRE = {"H": H, "T": T, "T*": T_DAGGER, "S": S, "S*": S_DAGGER}
_ONE_WIRE_NAMES = {v: k for k, v in _ONE_WIRE.items()}
_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


# ----------------------------------------------------------------------
# Writing
# ----------------------------------------------------------------------

# Gates rendered and encoded per slice: besides the file's bytes, the
# writer holds the text of at most this many gates.
SLICE_GATES = 2048

# Line prefix of each one-wire gate kind (NOT is ``tof`` with one wire).
_ONE_WIRE_PREFIX = {NOT: "tof ",
                    **{k: f"{v} " for k, v in _ONE_WIRE_NAMES.items()}}


# A Toffoli on controls a, b and target c as the 15 lines of its
# Clifford+T template (``circuit_ir.TOFFOLI_TEMPLATE``, written out so
# that it is one compiled f-string).
def _toffoli_clifford_t(a: str, b: str, c: str) -> str:
    return (f"T {a}\nT {b}\nH {c}\ntof {c} {a}\nT* {a}\nT {c}\n"
            f"tof {b} {a}\nT {a}\ntof {c} {b}\ntof {c} {a}\nT* {b}\n"
            f"T* {a}\ntof {c} {b}\ntof {b} {a}\nH {c}")


def _sanitize(label: str) -> str:
    s = re.sub(r"[^A-Za-z0-9_]", "_", label)
    # A block named BEGIN or END could not be invoked: a bare keyword in
    # the main block opens or closes a block.
    if not _NAME_RE.match(s) or s in ("BEGIN", "END"):
        s = "G_" + s
    return s


def _lines(kind, cols, names, clifford_t) -> list[str]:
    """The lines of one run's gates, a Toffoli's as its Clifford+T
    template with ``clifford_t``."""
    if kind == TOFFOLI:
        if clifford_t:
            return [_toffoli_clifford_t(names[a], names[b], names[c])
                    for a, b, c in zip(*cols)]
        return [f"tof {names[a]} {names[b]} {names[c]}"
                for a, b, c in zip(*cols)]
    if kind == CNOT:
        return [f"tof {names[a]} {names[b]}" for a, b in zip(*cols)]
    prefix = _ONE_WIRE_PREFIX[kind]
    return [prefix + names[a] for a in cols[0]]


def _write_runs(out, runs, names, clifford_t):
    """Write the gates of ``runs`` into ``out`` as lines ending in LF,
    rendered and encoded at most SLICE_GATES gates of a run at a time."""
    for kind, cols in runs:
        for start in range(0, len(cols[0]), SLICE_GATES):
            part = [col[start:start + SLICE_GATES] for col in cols]
            lines = _lines(kind, part, names, clifford_t)
            lines.append("")
            out.write("\n".join(lines).encode())


def write_qc(circuit: Circuit, clifford_t: bool = False) -> bytes:
    """Render a circuit as the bytes of a .qc file (deterministic).

    The file is written into one buffer, whose bytes are returned
    without a copy: the header, each labeled block as a named
    subcircuit, then the main block, which writes each unlabeled
    block's gates and each labeled block's name in block order.  Gates
    are rendered and encoded at most SLICE_GATES of a run at a time, so
    no other copy of the text is held.  With ``clifford_t`` each Toffoli is written as
    its 15-gate Clifford+T template (``circuit_ir.TOFFOLI_TEMPLATE``) as
    it is rendered, giving the same bytes as writing
    ``decompose_toffoli(circuit)``.
    """
    names = circuit.wires
    out = io.BytesIO()
    joined = " ".join(names)
    out.write(f".v {joined}\n.i {joined}\n.o {joined}\n\n".encode())
    block_names = []
    taken: set[str] = set()
    for label, runs in circuit.blocks:
        if label is None:
            continue
        base = _sanitize(label)
        name, k = base, 2
        while name in taken:
            name = f"{base}_{k}"
            k += 1
        taken.add(name)
        block_names.append(name)
        out.write(f"BEGIN {name}\n".encode())
        _write_runs(out, runs, names, clifford_t)
        out.write(f"END {name}\n\n".encode())
    out.write(b"BEGIN\n")
    invocations = iter(block_names)
    for label, runs in circuit.blocks:
        if label is None:
            _write_runs(out, runs, names, clifford_t)
        else:
            out.write(f"{next(invocations)}\n".encode())
    out.write(b"END\n")
    return out.getvalue()


# ----------------------------------------------------------------------
# Parsing
# ----------------------------------------------------------------------

def _parse_gate(tokens, lineno, wire_ids) -> tuple:
    op = tokens[0]
    args = tokens[1:]
    if op == "tof":
        if not 1 <= len(args) <= 3:
            raise QcSyntaxError(f"tof takes 1-3 wires, got {len(args)}", lineno)
        kind = (NOT, CNOT, TOFFOLI)[len(args) - 1]
    elif op in _ONE_WIRE:
        if len(args) != 1:
            raise QcSyntaxError(f"{op} takes exactly one wire", lineno)
        kind = _ONE_WIRE[op]
    else:
        raise QcSyntaxError(f"unknown gate {op!r}", lineno)
    for a in args:
        if a not in wire_ids:
            raise QcSyntaxError(f"undeclared wire {a!r}", lineno)
    if len(set(args)) != len(args):
        raise QcSyntaxError("gate wires must be distinct", lineno)
    return (kind, *(wire_ids[a] for a in args))


def parse_qc(text: str) -> Circuit:
    """Parse .qc text into a circuit, in which each subcircuit invocation
    is a labeled block of the subcircuit's gates.

    Raises QcSyntaxError with a line number on malformed input, which
    includes an ``.i`` or ``.o`` line that does not list the ``.v`` names
    in ``.v`` order.
    """
    circuit = Circuit()
    wire_ids: dict[str, int] | None = None  # None until the .v line
    subs: dict[str, list] = {}  # subcircuit name -> its runs
    seen_main = False

    in_block = False
    block_name: str | None = None  # None = main block
    block_gates: list = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()

        if tokens[0].startswith(".") and not in_block:
            tag, rest = tokens[0], tokens[1:]
            for name in rest:
                if not _NAME_RE.match(name):
                    raise QcSyntaxError(f"bad wire name {name!r}", lineno)
            if tag == ".v":
                if wire_ids is not None:
                    raise QcSyntaxError("duplicate .v line", lineno)
                if len(set(rest)) != len(rest):
                    raise QcSyntaxError("repeated wire in .v", lineno)
                wire_ids = {name: circuit.add_wire(name) for name in rest}
            elif tag in (".i", ".o"):
                if wire_ids is None:
                    raise QcSyntaxError(f"{tag} before .v", lineno)
                bad = [w for w in rest if w not in wire_ids]
                if bad:
                    raise QcSyntaxError(f"{tag} names undeclared wire {bad[0]!r}",
                                        lineno)
                if rest != circuit.wires:
                    raise QcSyntaxError(
                        f"{tag} must list the .v wires in .v order", lineno)
            else:
                raise QcSyntaxError(f"unknown directive {tag}", lineno)
            continue

        if tokens[0] == "BEGIN":
            if in_block:
                raise QcSyntaxError("nested BEGIN", lineno)
            if wire_ids is None:
                raise QcSyntaxError("BEGIN before .v", lineno)
            if len(tokens) == 1:
                if seen_main:
                    raise QcSyntaxError("second unnamed BEGIN block", lineno)
                block_name = None
            elif len(tokens) == 2:
                if not _NAME_RE.match(tokens[1]):
                    raise QcSyntaxError(f"bad subcircuit name {tokens[1]!r}", lineno)
                if tokens[1] in subs:
                    raise QcSyntaxError(f"redefined subcircuit {tokens[1]!r}", lineno)
                if seen_main:
                    raise QcSyntaxError("subcircuit defined after main block", lineno)
                block_name = tokens[1]
            else:
                raise QcSyntaxError("BEGIN takes at most one name", lineno)
            in_block = True
            block_gates = []
            continue

        if tokens[0] == "END":
            if not in_block:
                raise QcSyntaxError("END without BEGIN", lineno)
            if block_name is None:
                if len(tokens) != 1:
                    raise QcSyntaxError("main END takes no name", lineno)
                seen_main = True
                circuit.add_runs(runs_of(block_gates))
            else:
                if len(tokens) == 2 and tokens[1] != block_name:
                    raise QcSyntaxError(
                        f"END name {tokens[1]!r} does not match BEGIN "
                        f"{block_name!r}", lineno)
                if len(tokens) > 2:
                    raise QcSyntaxError("END takes at most one name", lineno)
                subs[block_name] = runs_of(block_gates)
            in_block = False
            continue

        if not in_block:
            raise QcSyntaxError(f"gate or name outside any block: {line!r}", lineno)

        if len(tokens) == 1:
            # A bare name is a subcircuit invocation; defined names win
            # over gate mnemonics (a gate line always has wire operands).
            if block_name is None and tokens[0] in subs:
                circuit.add_runs(runs_of(block_gates))
                block_gates = []
                with circuit.group(tokens[0]):
                    circuit.add_runs(subs[tokens[0]])
                continue
            if tokens[0] not in _ONE_WIRE and tokens[0] != "tof":
                if block_name is not None:
                    raise QcSyntaxError(
                        "subcircuit invocation inside a subcircuit definition",
                        lineno)
                raise QcSyntaxError(f"undefined subcircuit {tokens[0]!r}", lineno)

        block_gates.append(_parse_gate(tokens, lineno, wire_ids))

    if in_block:
        raise QcSyntaxError("unterminated block at end of file", len(text.splitlines()))
    if wire_ids is None:
        raise QcSyntaxError("missing .v line", 1)
    if not seen_main:
        raise QcSyntaxError("missing main BEGIN/END block", len(text.splitlines()))
    return circuit

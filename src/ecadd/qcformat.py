""".qc circuit text format: writer and parser.

Layout of a document::

    .v <wire names>
    .i <input names>
    .o <output names>

    BEGIN <NAME>
    <gate lines>
    END <NAME>

    BEGIN
    <gate lines and subcircuit invocations>
    END

Gate lines: ``tof t`` (NOT), ``tof c t`` (CNOT), ``tof c1 c2 t``
(Toffoli), and single-wire ``H``, ``T``, ``T*``, ``S``, ``S*``.  A bare
name inside the main block invokes a previously defined subcircuit.
Lines use LF endings; ``#`` starts a comment.

The writer renders each top-level group of a circuit as a named
subcircuit.  Group labels repeat (e.g. several squaring blocks), so
definition names are made unique with ``_2``, ``_3``, ... suffixes while
preserving the first occurrence verbatim.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from itertools import islice

from .circuit_ir import (
    CNOT,
    H,
    NOT,
    S,
    S_DAGGER,
    T,
    T_DAGGER,
    TOFFOLI,
    TOFFOLI_TEMPLATE,
    Circuit,
)


class QcSyntaxError(ValueError):
    """Malformed .qc text; carries a 1-based line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class QcSemanticError(ValueError):
    """Well-formed .qc text with inconsistent content."""


_ONE_WIRE = {"H": H, "T": T, "T*": T_DAGGER, "S": S, "S*": S_DAGGER}
_ONE_WIRE_NAMES = {v: k for k, v in _ONE_WIRE.items()}
_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


@dataclass(frozen=True)
class QcGate:
    kind: int
    wires: tuple[str, ...]


@dataclass(frozen=True)
class QcSubcircuit:
    name: str
    gates: tuple[QcGate, ...]


@dataclass(frozen=True)
class QcDocument:
    variables: tuple[str, ...]
    inputs: tuple[str, ...]
    outputs: tuple[str, ...]
    subcircuits: tuple[QcSubcircuit, ...]
    main: tuple = field(default=())  # QcGate or str (invocation)


# ----------------------------------------------------------------------
# Writing
# ----------------------------------------------------------------------

# Line prefix of each one-wire gate kind (NOT is ``tof`` with one wire).
_ONE_WIRE_PREFIX = {NOT: "tof ",
                    **{k: f"{v} " for k, v in _ONE_WIRE_NAMES.items()}}
# A Toffoli as one line, and as the 15 lines of its Clifford+T template;
# fields 0 and 1 are the controls, field 2 the target.
_TOFFOLI_LINE = "tof {0} {1} {2}"
_TOFFOLI_CLIFFORD_T = "\n".join(
    f"tof {{{e[1]}}} {{{e[2]}}}" if e[0] == CNOT
    else f"{_ONE_WIRE_NAMES[e[0]]} {{{e[1]}}}"
    for e in TOFFOLI_TEMPLATE
)


def _sanitize(label: str) -> str:
    s = re.sub(r"[^A-Za-z0-9_]", "_", label)
    if not s or not _NAME_RE.match(s):
        s = "G_" + s
    return s


def _render(gates, count: int, names, toffoli) -> str:
    """The next ``count`` gates of the iterator ``gates`` as LF-joined
    lines; ``toffoli`` formats a Toffoli from its three wire names."""
    lines = []
    append = lines.append
    prefix = _ONE_WIRE_PREFIX
    for g in islice(gates, count):
        k = g[0]
        if k == CNOT:
            _, a, b = g
            append(f"tof {names[a]} {names[b]}")
        elif k == TOFFOLI:
            _, a, b, c = g
            append(toffoli(names[a], names[b], names[c]))
        else:
            _, a = g
            append(prefix[k] + names[a])
    return "\n".join(lines)


def write_qc(circuit: Circuit, clifford_t: bool = False) -> str:
    """Render a circuit as .qc text (deterministic).

    The text is built a block at a time: one string per top-level group
    and per run of gates between groups, joined once at the end.  With
    ``clifford_t`` each Toffoli is written as its 15-gate Clifford+T
    template (``circuit_ir.TOFFOLI_TEMPLATE``) as it is rendered, giving
    the same text as writing ``decompose_toffoli(circuit)``.
    """
    circuit.check_closed()
    names = circuit.wires
    toffoli = (_TOFFOLI_CLIFFORD_T if clifford_t else _TOFFOLI_LINE).format
    gates = iter(circuit.gate_tuples())
    parts = [
        ".v " + " ".join(names),
        ".i " + " ".join(names),
        ".o " + " ".join(names[p] for p in circuit.out_permutation),
        "",
    ]
    main = ["BEGIN"]
    used: dict[str, int] = {}
    pos = 0
    for grp in circuit.top_level_groups():
        base = _sanitize(grp.label)
        used[base] = used.get(base, 0) + 1
        name = base if used[base] == 1 else f"{base}_{used[base]}"
        if grp.start > pos:
            main.append(_render(gates, grp.start - pos, names, toffoli))
        parts.append(f"BEGIN {name}")
        if grp.end > grp.start:
            parts.append(_render(gates, grp.end - grp.start, names, toffoli))
        parts.append(f"END {name}\n")
        main.append(name)
        pos = grp.end
    if circuit.num_gates > pos:
        main.append(_render(gates, circuit.num_gates - pos, names, toffoli))
    main.append("END\n")
    parts += main
    return "\n".join(parts)


# ----------------------------------------------------------------------
# Parsing
# ----------------------------------------------------------------------

def _parse_gate(tokens, lineno, declared) -> QcGate:
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
        if a not in declared:
            raise QcSyntaxError(f"undeclared wire {a!r}", lineno)
    if len(set(args)) != len(args):
        raise QcSyntaxError("gate wires must be distinct", lineno)
    return QcGate(kind, tuple(args))


def parse_qc(text: str) -> QcDocument:
    """Parse .qc text into a document; raises QcSyntaxError with a line
    number on malformed input."""
    variables: tuple[str, ...] | None = None
    inputs: tuple[str, ...] = ()
    outputs: tuple[str, ...] = ()
    subs: list[QcSubcircuit] = []
    sub_names: set[str] = set()
    main: list = []
    seen_main = False

    in_block = False
    block_name: str | None = None  # None = main block
    block_items: list = []
    declared: set[str] = set()

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
                if variables is not None:
                    raise QcSyntaxError("duplicate .v line", lineno)
                if len(set(rest)) != len(rest):
                    raise QcSyntaxError("repeated wire in .v", lineno)
                variables = tuple(rest)
                declared = set(rest)
            elif tag in (".i", ".o"):
                if variables is None:
                    raise QcSyntaxError(f"{tag} before .v", lineno)
                bad = [w for w in rest if w not in declared]
                if bad:
                    raise QcSyntaxError(f"{tag} names undeclared wire {bad[0]!r}",
                                        lineno)
                if tag == ".i":
                    inputs = tuple(rest)
                else:
                    outputs = tuple(rest)
            else:
                raise QcSyntaxError(f"unknown directive {tag}", lineno)
            continue

        if tokens[0] == "BEGIN":
            if in_block:
                raise QcSyntaxError("nested BEGIN", lineno)
            if variables is None:
                raise QcSyntaxError("BEGIN before .v", lineno)
            if len(tokens) == 1:
                if seen_main:
                    raise QcSyntaxError("second unnamed BEGIN block", lineno)
                block_name = None
            elif len(tokens) == 2:
                if not _NAME_RE.match(tokens[1]):
                    raise QcSyntaxError(f"bad subcircuit name {tokens[1]!r}", lineno)
                if tokens[1] in sub_names:
                    raise QcSyntaxError(f"redefined subcircuit {tokens[1]!r}", lineno)
                if seen_main:
                    raise QcSyntaxError("subcircuit defined after main block", lineno)
                block_name = tokens[1]
            else:
                raise QcSyntaxError("BEGIN takes at most one name", lineno)
            in_block = True
            block_items = []
            continue

        if tokens[0] == "END":
            if not in_block:
                raise QcSyntaxError("END without BEGIN", lineno)
            if block_name is None:
                if len(tokens) != 1:
                    raise QcSyntaxError("main END takes no name", lineno)
                main = block_items
                seen_main = True
            else:
                if len(tokens) == 2 and tokens[1] != block_name:
                    raise QcSyntaxError(
                        f"END name {tokens[1]!r} does not match BEGIN "
                        f"{block_name!r}", lineno)
                if len(tokens) > 2:
                    raise QcSyntaxError("END takes at most one name", lineno)
                subs.append(QcSubcircuit(block_name, tuple(block_items)))
                sub_names.add(block_name)
            in_block = False
            continue

        if not in_block:
            raise QcSyntaxError(f"gate or name outside any block: {line!r}", lineno)

        if len(tokens) == 1:
            # A bare name is a subcircuit invocation; defined names win
            # over gate mnemonics (a gate line always has wire operands).
            if block_name is None and tokens[0] in sub_names:
                block_items.append(tokens[0])
                continue
            if tokens[0] not in _ONE_WIRE and tokens[0] != "tof":
                if block_name is not None:
                    raise QcSyntaxError(
                        "subcircuit invocation inside a subcircuit definition",
                        lineno)
                raise QcSyntaxError(f"undefined subcircuit {tokens[0]!r}", lineno)

        block_items.append(_parse_gate(tokens, lineno, declared))

    if in_block:
        raise QcSyntaxError("unterminated block at end of file", len(text.splitlines()))
    if variables is None:
        raise QcSyntaxError("missing .v line", 1)
    if not seen_main:
        raise QcSyntaxError("missing main BEGIN/END block", len(text.splitlines()))
    return QcDocument(variables, inputs, outputs, tuple(subs), tuple(main))


def to_circuit(doc: QcDocument) -> Circuit:
    """Expand a parsed document into a flat circuit; each subcircuit
    invocation becomes a labeled group."""
    c = Circuit()
    for name in doc.variables:
        c.add_wire(name)
    sub_map = {s.name: s for s in doc.subcircuits}
    for item in doc.main:
        if isinstance(item, str):
            sub = sub_map[item]
            with c.group(sub.name):
                for g in sub.gates:
                    c.append(g.kind, *(c.wire_id(w) for w in g.wires))
        else:
            c.append(item.kind, *(c.wire_id(w) for w in item.wires))
    if doc.outputs:
        if sorted(doc.outputs) != sorted(doc.variables):
            raise QcSemanticError(
                ".o must be a permutation of .v to define the output order"
            )
        c.out_permutation = [c.wire_id(w) for w in doc.outputs]
    return c


def circuit_from_qc(text: str) -> Circuit:
    return to_circuit(parse_qc(text))

"""Reversible-circuit synthesis of F2^n field operations.

All routines append gates to an existing :class:`~ecadd.circuit_ir.Circuit`
over n-wire registers.  Conventions:

* a linear map M is synthesized out of place as ``dst ^= M * src`` with
  exactly ``weight(M)`` CNOTs, emitted color class by color class from a
  minimal edge coloring of the map's bipartite graph, so the scheduled
  CNOT depth is exactly ``max_degree(M)``;
* the multiplier maps ``|a> |b> |c> -> |a> |b> |c + a*b>`` for any
  accumulator value c, using n^2 Toffolis, 2(n-1)(w-2) CNOTs for a
  modulus of weight w, and no ancillae: operand b is cycled through
  multiples x^i * b in place and restored at the end.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain

from .circuit_ir import CNOT, TOFFOLI, Circuit, CircuitError, GateRuns
from .edgecolor import color_edges, graph_of_matrix
from .gf2field import IrreduciblePoly
from .linmaps import BinMatrix


class RegisterOverlap(CircuitError):
    """Registers passed to a synthesis routine share wires."""


@dataclass(frozen=True)
class RegisterRef:
    """A named, ordered slice of circuit wires (bit i on wires[i])."""

    name: str
    wires: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.wires)


def add_register(circuit: Circuit, name: str, n: int) -> RegisterRef:
    """Allocate n fresh wires named ``{name}_{i}``."""
    return RegisterRef(name, tuple(circuit.add_wire(f"{name}_{i}") for i in range(n)))


def new_circuit(n: int, *names: str) -> tuple[Circuit, list[RegisterRef]]:
    """Fresh circuit with one n-wire register per name."""
    c = Circuit()
    return c, [add_register(c, name, n) for name in names]


def _require_disjoint(*regs: RegisterRef):
    seen: set[int] = set()
    for r in regs:
        for w in r.wires:
            if w in seen:
                raise RegisterOverlap(f"register {r.name} overlaps another operand")
            seen.add(w)


@lru_cache(maxsize=8)
def _cnot_order(matrix: BinMatrix) -> tuple[array, array]:
    """The CNOTs of ``dst ^= M * src`` as (source column, target row)
    columns: color class by color class of a minimal edge coloring, each
    class in edge order."""
    graph = graph_of_matrix(matrix)
    coloring = color_edges(graph)
    cols: list[list[int]] = [[] for _ in range(coloring.num_colors)]
    rows: list[list[int]] = [[] for _ in range(coloring.num_colors)]
    for (i, j), color in zip(graph.edges, coloring.colors):
        cols[color].append(i)
        rows[color].append(j)
    return (array("I", chain.from_iterable(cols)),
            array("I", chain.from_iterable(rows)))


def synth_linear(circuit: Circuit, matrix: BinMatrix, src: RegisterRef,
                 dst: RegisterRef) -> GateRuns:
    """Append ``dst ^= M * src`` (weight(M) CNOTs, depth max_degree(M))
    as one CNOT run, layer by layer, and return it.  Its CNOTs commute
    and src and dst are disjoint, so a caller may replay the run to undo
    the block.  The CNOT order is worked out once per matrix and cached,
    so blocks of the same map share one edge coloring."""
    if matrix.n != src.n or matrix.n != dst.n:
        raise CircuitError("matrix dimension does not match register width")
    _require_disjoint(src, dst)
    cols, rows = _cnot_order(matrix)
    block = GateRuns(((CNOT, (array("I", map(src.wires.__getitem__, cols)),
                              array("I", map(dst.wires.__getitem__, rows)))),))
    circuit.add_runs(block.runs)
    return block


def synth_add_inplace(circuit: Circuit, src: RegisterRef, dst: RegisterRef):
    """Append ``dst ^= src``: n transversal CNOTs, depth 1."""
    if src.n != dst.n:
        raise CircuitError("register widths differ")
    _require_disjoint(src, dst)
    circuit.add_runs(((CNOT, (array("I", src.wires), array("I", dst.wires))),))


def synth_mult(circuit: Circuit, field: IrreduciblePoly, a: RegisterRef,
               b: RegisterRef, acc: RegisterRef) -> GateRuns:
    """Append the in-place modular multiplier ``acc ^= a * b`` and return
    its runs (which a caller may replay reversed to uncompute the
    product).

    Operand b is replaced by x*b (mod p) before each partial-product row
    after the first -- a cyclic wire relabeling plus one CNOT fan-out from
    the former top bit per inner reduction term -- and the n-1 shifts are
    undone at the end, restoring b exactly.  Each row of n Toffolis is a
    run, and the rows share one ``acc`` column.
    """
    if not (field.n == a.n == b.n == acc.n):
        raise CircuitError("register widths do not match the field degree")
    _require_disjoint(a, b, acc)
    n = field.n
    exps = [e for e in field.support if 0 < e < n]
    fan = len(exps)
    view = list(b.wires)
    acc_col = array("I", acc.wires)
    runs = []
    for i, ai in enumerate(a.wires):
        if i:
            top = view[-1]
            runs.append((CNOT, (array("I", [top]) * fan,
                                array("I", [view[e - 1] for e in exps]))))
            view = [top] + view[:-1]
        runs.append((TOFFOLI, (array("I", [ai]) * n, array("I", view),
                               acc_col)))
    controls, targets = array("I"), array("I")
    for _ in range(n - 1):
        top = view[0]
        view = view[1:] + [top]
        controls.extend([top] * fan)
        targets.extend([view[e - 1] for e in exps])
    runs.append((CNOT, (controls, targets)))
    block = GateRuns(tuple(runs))
    circuit.add_runs(block.runs)
    return block


def standalone_multiplier(field: IrreduciblePoly) -> Circuit:
    """A fresh 3n-wire circuit computing ``acc ^= a * b``."""
    c, (a, b, acc) = new_circuit(field.n, "a", "b", "acc")
    synth_mult(c, field, a, b, acc)
    return c

"""Reversible point-addition circuits for ordinary binary elliptic curves.

The pipeline: binary-field arithmetic (:mod:`ecadd.gf2field`), linear
maps as bit matrices (:mod:`ecadd.linmaps`), minimal CNOT-depth layering
via bipartite edge coloring (:mod:`ecadd.edgecolor`), field-operation
synthesis (:mod:`ecadd.fieldsynth`), the full Lopez-Dahab mixed-addition
circuit (:mod:`ecadd.pointaddsynth`), classical oracles
(:mod:`ecadd.ecoracle`), simulation (:mod:`ecadd.revsim`), and the .qc
text format (:mod:`ecadd.qcformat`).  Large jobs split their colorings,
and ``ecadd synth`` its report and its write, over two processes
(:mod:`ecadd.fanout`).
"""

from .circuit_ir import Circuit, ResourceReport, decompose_toffoli, metrics
from .ecoracle import AffinePoint, Curve, LDPoint, affine_add, aldaoud_madd
from .gf2field import FieldElem, IrreduciblePoly
from .linmaps import BinMatrix
from .pointaddsynth import synth_point_add, verify_point_add
from .qcformat import parse_qc, write_qc
from .revsim import Simulator

__all__ = [
    "AffinePoint",
    "BinMatrix",
    "Circuit",
    "Curve",
    "FieldElem",
    "IrreduciblePoly",
    "LDPoint",
    "ResourceReport",
    "Simulator",
    "affine_add",
    "aldaoud_madd",
    "decompose_toffoli",
    "metrics",
    "parse_qc",
    "synth_point_add",
    "verify_point_add",
    "write_qc",
]

__version__ = "0.1.0"

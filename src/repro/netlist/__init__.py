"""Logic-netlist representation and services.

The netlist is the common currency of the whole library:

* :mod:`repro.netlist.cells` — the cell library (gates, LUT, DFF, IO).
* :mod:`repro.netlist.core` — :class:`Netlist`, :class:`Instance`,
  :class:`Net` with full mutation support for ECO edits.
* :mod:`repro.netlist.builder` — word-level construction helpers used by
  the benchmark generators (adders, muxes, popcount, registers, ...).
* :mod:`repro.netlist.validate` — structural checks.
* :mod:`repro.netlist.simulate` — levelized bit-parallel simulation.
* :mod:`repro.netlist.blif` — Berkeley BLIF (MCNC format) reader/writer.
"""

from repro.netlist.cells import (
    CellKind,
    GATE_KINDS,
    arity_of,
    eval_gate,
    is_combinational,
    is_sequential,
)
from repro.netlist.core import Adjacency, Instance, Net, Netlist, port_name
from repro.netlist.builder import NetlistBuilder, Word
from repro.netlist.compiled import CompiledKernel, kernel_for
from repro.netlist.cones import ConeIndex
from repro.netlist.simulate import (
    CombinationalSimulator,
    initial_state,
    make_engine,
)
from repro.netlist.validate import check_netlist

__all__ = [
    "CellKind",
    "GATE_KINDS",
    "arity_of",
    "eval_gate",
    "is_combinational",
    "is_sequential",
    "Adjacency",
    "Instance",
    "Net",
    "Netlist",
    "port_name",
    "NetlistBuilder",
    "Word",
    "CompiledKernel",
    "kernel_for",
    "ConeIndex",
    "CombinationalSimulator",
    "initial_state",
    "make_engine",
    "check_netlist",
]

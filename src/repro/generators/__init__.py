"""Benchmark design generators — the paper's nine experimental designs.

The MCNC netlists and the two "real world" designs are not shipped with
the paper, so each is rebuilt structurally; each module's docstring
records how it is calibrated to the paper's CLB footprint:

* :mod:`repro.generators.parity` — 9sym as the true 9-input symmetric
  function;
* :mod:`repro.generators.hamming` — c499 as a real 32-bit single-error
  corrector;
* :mod:`repro.generators.alu` — c880-class ALU;
* :mod:`repro.generators.fsm` — styr / sand / planet1-class finite state
  machines with calibrated random fabric;
* :mod:`repro.generators.random_logic` — Rent-style sequential fabric
  (s9234 class);
* :mod:`repro.generators.mips` — the MIPS R2000 single-cycle core;
* :mod:`repro.generators.des` — the 16-round DES datapath;
* :mod:`repro.generators.registry` — name → design table calibrated to
  the paper's Table 1 CLB counts.
"""

from repro.generators.registry import (
    DesignBundle,
    PAPER_DESIGNS,
    build_design,
    paper_design_names,
)

__all__ = [
    "DesignBundle",
    "PAPER_DESIGNS",
    "build_design",
    "paper_design_names",
]

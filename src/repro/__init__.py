"""repro — reproduction of Lach/Mangione-Smith/Potkonjak, DAC 2000.

"Efficient Error Detection, Localization, and Correction for FPGA-Based
Debugging" proposes *tiling*: partitioning an FPGA physical design into
independent blocks with locked interfaces so that each debugging change
(test-logic insertion or an error fix) only re-places-and-routes the
affected tiles.

The package is a complete, self-contained FPGA CAD substrate plus the
paper's contribution:

* :mod:`repro.netlist` — logic netlists, simulation, BLIF I/O.
* :mod:`repro.generators` — the nine benchmark designs of the paper.
* :mod:`repro.synth` — 4-LUT technology mapping and XC4000 CLB packing.
* :mod:`repro.arch` — the XC4000-style CLB-grid architecture model.
* :mod:`repro.pnr` — annealing placement, maze routing, timing, effort.
* :mod:`repro.tiling` — the paper's core: tiles, locked interfaces, slack.
* :mod:`repro.debug` — the emulation debug loop (detect/localize/correct).
* :mod:`repro.emu` — cycle emulation and mock bitstreams.
* :mod:`repro.analysis` — experiment drivers for Table 1 and Figures 3-5.
* :mod:`repro.api` — the public facade: `RunSpec`, the staged
  detect→localize→correct→verify pipeline, `CampaignRunner`, and the
  ``python -m repro`` CLI.
"""

from repro._version import __version__

__all__ = ["__version__"]

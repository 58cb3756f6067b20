"""Design registry: the nine benchmarks of the paper's Table 1.

Each entry names a generator and the parameters calibrated so the packed
CLB count lands on the paper's published footprint (tests assert ±15 %):

=========  ======================  ============
design     kind                    paper # CLBs
=========  ======================  ============
9sym       MCNC combinational      56
styr       MCNC FSM                98
sand       MCNC FSM                100
c499       MCNC combinational      115
planet1    MCNC FSM                115
c880       MCNC combinational      135
s9234      MCNC sequential         235
MIPS R2000 processor core          900
DES        crypto datapath         1050
=========  ======================  ============

:func:`build_design` runs the full front end (generate → map → pack).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.errors import ReproError
from repro.generators.alu import make_c880
from repro.generators.des import make_des
from repro.generators.fsm import make_fsm
from repro.generators.hamming import make_c499
from repro.generators.mips import make_mips
from repro.generators.parity import make_9sym
from repro.generators.random_logic import random_sequential_netlist
from repro.netlist.core import Netlist
from repro.synth.pack import PackedDesign, pack_netlist
from repro.synth.techmap import map_to_luts


@dataclass(frozen=True)
class PaperDesign:
    """Registry entry for one benchmark."""

    name: str
    kind: str  # "combinational" | "sequential" | "core"
    paper_clbs: int
    factory: Callable[[int], Netlist]


@dataclass
class DesignBundle:
    """Everything downstream stages need for one benchmark."""

    name: str
    netlist: Netlist
    mapped: Netlist
    packed: PackedDesign
    paper_clbs: int
    kind: str

    @property
    def n_clbs(self) -> int:
        return self.packed.n_clbs


# State counts are calibration knobs: our FSM synthesis spends more
# LUTs per state than the MCNC-era SIS mapping, so the published CLB
# footprint is reached with proportionally fewer states.

def _styr(seed: int) -> Netlist:
    return make_fsm("styr", n_states=19, n_inputs=9, n_outputs=10, seed=seed)


def _sand(seed: int) -> Netlist:
    return make_fsm("sand", n_states=20, n_inputs=11, n_outputs=9, seed=seed)


def _planet1(seed: int) -> Netlist:
    return make_fsm("planet1", n_states=20, n_inputs=7, n_outputs=19, seed=seed)


def _s9234(seed: int) -> Netlist:
    return random_sequential_netlist(
        "s9234", n_inputs=36, n_outputs=39, n_ffs=211, n_gates=270,
        seed=seed, depth=14,
    )


PAPER_DESIGNS: dict[str, PaperDesign] = {
    "9sym": PaperDesign(
        "9sym", "combinational", 56,
        lambda seed: make_9sym(replicas=2, seed=seed),
    ),
    "styr": PaperDesign("styr", "sequential", 98, _styr),
    "sand": PaperDesign("sand", "sequential", 100, _sand),
    "c499": PaperDesign(
        "c499", "combinational", 115, lambda seed: make_c499(seed=seed)
    ),
    "planet1": PaperDesign("planet1", "sequential", 115, _planet1),
    "c880": PaperDesign(
        "c880", "combinational", 135,
        lambda seed: make_c880(width=10, seed=seed),
    ),
    "s9234": PaperDesign("s9234", "sequential", 235, _s9234),
    "mips": PaperDesign(
        "mips", "core", 900, lambda seed: make_mips(seed=seed)
    ),
    "des": PaperDesign(
        "des", "core", 1050, lambda seed: make_des(n_rounds=7, seed=seed)
    ),
}

#: Display names used in reports (paper spelling).
DISPLAY_NAMES = {
    "mips": "MIPS R2000",
    "des": "DES",
}


def paper_design_names() -> list[str]:
    """The nine designs in Table 1 order (smallest to largest)."""
    return list(PAPER_DESIGNS)


def build_design(name: str, seed: int = 0) -> DesignBundle:
    """Generate, map and pack one benchmark."""
    try:
        entry = PAPER_DESIGNS[name]
    except KeyError:
        known = ", ".join(PAPER_DESIGNS)
        raise ReproError(f"unknown design {name!r} (known: {known})") from None

    netlist = entry.factory(seed)
    mapped = map_to_luts(netlist)
    packed = pack_netlist(mapped)
    return DesignBundle(
        name=name,
        netlist=netlist,
        mapped=mapped,
        packed=packed,
        paper_clbs=entry.paper_clbs,
        kind=entry.kind,
    )

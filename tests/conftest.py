"""Shared fixtures: small circuits and cached mid-size design bundles."""

from __future__ import annotations

import pytest

from repro.arch import pick_device
from repro.generators import build_design
from repro.netlist import Netlist, NetlistBuilder
from repro.netlist.simulate import replay_outputs
from repro.pnr import EFFORT_PRESETS, full_place_and_route
from repro.synth import map_to_luts, pack_netlist
from repro.synth.pack import PackedDesign, _resync_nets


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "slow: long-running campaigns, opt in with REPRO_SLOW=1",
    )


def comb_outputs(netlist: Netlist, inputs: dict, n_patterns: int) -> dict:
    """Primary outputs of one interpreted cycle from reset."""
    (out,) = replay_outputs(netlist, [inputs], n_patterns, engine="interpreted")
    return out


def refresh_block_nets(
    packed: PackedDesign,
) -> tuple[set[int], set[int], set[int]]:
    """Re-derive every block net after netlist ECO edits: the full walk
    that :func:`repro.synth.pack.refresh_touched_nets` (which re-derives
    only the nets the edits can have touched) must equal.

    Returns (new, changed, removed) net indices.  Unchanged nets keep
    their index *and* identity so existing routes remain valid.
    """
    netlist = packed.netlist
    gone = [
        name for name in packed._net_index_of_name
        if not netlist.has_net(name)
    ]
    return _resync_nets(packed, netlist.nets(), gone)


def make_adder_netlist(width: int = 4, registered: bool = False) -> Netlist:
    """A ripple adder, optionally with an output register."""
    netlist = Netlist(f"adder{width}{'r' if registered else ''}")
    b = NetlistBuilder(netlist)
    a = b.input_word("a", width)
    c = b.input_word("b", width)
    total, carry = b.adder(a, c)
    if registered:
        total = b.register(total, name="r")
    b.output_word("s", total)
    netlist.add_output("cout", carry)
    return netlist


@pytest.fixture
def adder4() -> Netlist:
    return make_adder_netlist(4)


@pytest.fixture
def adder4_registered() -> Netlist:
    return make_adder_netlist(4, registered=True)


@pytest.fixture(scope="session")
def styr_bundle():
    """Mid-size sequential benchmark, shared read-only across tests."""
    return build_design("styr")


@pytest.fixture(scope="session")
def small_layout():
    """A placed-and-routed small design (fresh copy not needed: read-only)."""
    netlist = make_adder_netlist(8, registered=True)
    mapped = map_to_luts(netlist)
    packed = pack_netlist(mapped)
    device = pick_device(
        packed.n_clbs, area_overhead=0.5,
        min_io=len(packed.io_blocks()),
    )
    layout = full_place_and_route(
        packed, device, seed=7, preset=EFFORT_PRESETS["fast"],
    )
    return layout


def fresh_packed_design(width: int = 6, registered: bool = True):
    """A small packed design, fresh per call (tests may mutate it)."""
    netlist = make_adder_netlist(width, registered=registered)
    mapped = map_to_luts(netlist)
    return pack_netlist(mapped)

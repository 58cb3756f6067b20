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


def reference_copy(netlist: Netlist, name: str | None = None) -> Netlist:
    """The copy built one :meth:`Netlist.add_net` /
    :meth:`Netlist.add_instance` call per object: the reference that
    :meth:`Netlist.copy` (which builds the clone's tables directly)
    must equal, its log's construction entries apart."""
    clone = Netlist(name or netlist.name)
    clone._uid = netlist._uid
    for net in netlist.nets():
        clone.add_net(net.name)
    for inst in netlist.instances():
        clone.add_instance(
            inst.kind,
            [clone.net(n.name) for n in inst.inputs],
            name=inst.name,
            output=clone.net(inst.output.name) if inst.output else None,
            params=dict(inst.params),
        )
    return clone


def reference_backrefs(netlist: Netlist) -> list[str]:
    """The back-reference check that scans each pin's net sink list:
    the reference :func:`repro.netlist.validate._check_backrefs` (which
    builds each net's sink set once per check) must equal, problem for
    problem and in order."""
    problems = []
    drivers_seen: dict[str, str] = {}
    for inst in netlist.instances():
        for idx, net in enumerate(inst.inputs):
            if not netlist.has_net(net.name) or netlist.net(net.name) is not net:
                problems.append(
                    f"{inst.name} input {idx} reads ghost net {net.name}"
                )
            if (inst, idx) not in net.sinks:
                problems.append(
                    f"pin {inst.name}[{idx}] not registered on net {net.name}"
                )
        if inst.output is not None and (
            not netlist.has_net(inst.output.name)
            or netlist.net(inst.output.name) is not inst.output
        ):
            problems.append(
                f"{inst.name} drives ghost net {inst.output.name}"
            )
        if inst.output is not None:
            if inst.output.driver is not inst:
                problems.append(
                    f"net {inst.output.name} does not point back to driver "
                    f"{inst.name}"
                )
            if inst.output.name in drivers_seen:
                problems.append(
                    f"net {inst.output.name} driven by both "
                    f"{drivers_seen[inst.output.name]} and {inst.name}"
                )
            drivers_seen[inst.output.name] = inst.name
    for net in netlist.nets():
        for sink_inst, idx in net.sinks:
            if not netlist.has_instance(sink_inst.name):
                problems.append(
                    f"net {net.name} lists removed sink {sink_inst.name}"
                )
            elif sink_inst.inputs[idx] is not net:
                problems.append(
                    f"net {net.name} sink {sink_inst.name}[{idx}] disagrees"
                )
    return problems


def netlist_signature(netlist: Netlist, log_after: int = 0) -> tuple:
    """Everything a netlist copy must reproduce, as plain values in
    order: nets (serial, driver, each net's sink order), instances
    (kind, serial, pins, params), the revision and counters, the
    per-kind registries and the edit-log entries past ``log_after``."""
    log = [
        entry
        for entry in zip(
            netlist._log_revisions, netlist._log_names, netlist._log_kinds
        )
        if entry[0] > log_after
    ]
    return (
        netlist.name,
        netlist.revision,
        netlist._serial,
        netlist._uid,
        [
            (
                net.name,
                net.serial,
                net.driver.name if net.driver else None,
                [(sink.name, idx) for sink, idx in net.sinks],
            )
            for net in netlist.nets()
        ],
        [
            (
                inst.name,
                inst.kind,
                inst.serial,
                [net.name for net in inst.inputs],
                inst.output.name if inst.output else None,
                sorted(inst.params.items()),
            )
            for inst in netlist.instances()
        ],
        {kind: list(registry) for kind, registry in netlist._by_kind.items()},
        log,
    )


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

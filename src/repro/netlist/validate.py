"""Structural netlist validation.

:func:`check_netlist` returns a list of human-readable problems (empty
when the netlist is clean) and raises :class:`ValidationError` in strict
mode.  It is cheap enough to run after every ECO edit, which the debug
flow does to guarantee injected errors and corrections keep the netlist
well-formed.
"""

from __future__ import annotations

from repro.errors import ValidationError
from repro.netlist.cells import CellKind
from repro.netlist.core import Instance, Net, Netlist


def check_netlist(netlist: Netlist, strict: bool = True) -> list[str]:
    """Run every structural check; optionally raise on problems.

    Checks performed:

    1. connectivity back-references are consistent both ways,
    2. every instance input is a driven net,
    3. LUT truth tables fit their input count,
    4. primary outputs are driven,
    5. no combinational loops,
    6. no two instances drive the same net (guaranteed by construction,
       re-verified here against direct attribute tampering).
    """
    problems: list[str] = []
    problems.extend(_check_backrefs(netlist))
    problems.extend(_check_driven_inputs(netlist))
    problems.extend(_check_lut_tables(netlist))
    problems.extend(_check_outputs(netlist))
    problems.extend(_check_loops(netlist))
    if strict and problems:
        raise ValidationError(
            f"{netlist.name}: {len(problems)} problem(s): " + "; ".join(problems[:10])
        )
    return problems


def _check_backrefs(netlist: Netlist) -> list[str]:
    problems = []
    drivers_seen: dict[str, str] = {}
    # each live net (registered under its own name) with its sink pins
    # as a set, built once: a scan of the sink list per pin would cost
    # O(fanout) each
    pins_of: dict[Net, set[tuple[Instance, int]]] = {
        net: set(net.sinks)
        for net in netlist.nets()
        if netlist.has_net(net.name) and netlist.net(net.name) is net
    }
    for inst in netlist.instances():
        for idx, net in enumerate(inst.inputs):
            pins = pins_of.get(net)
            if pins is None:
                problems.append(
                    f"{inst.name} input {idx} reads ghost net {net.name}"
                )
                pins = net.sinks
            if (inst, idx) not in pins:
                problems.append(
                    f"pin {inst.name}[{idx}] not registered on net {net.name}"
                )
        if inst.output is not None and inst.output not in pins_of:
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


def _check_driven_inputs(netlist: Netlist) -> list[str]:
    problems = []
    for inst in netlist.instances():
        for idx, net in enumerate(inst.inputs):
            if net.driver is None:
                problems.append(
                    f"{inst.name} input {idx} reads undriven net {net.name}"
                )
    return problems


def _check_lut_tables(netlist: Netlist) -> list[str]:
    problems = []
    for inst in netlist.instances():
        if inst.kind is not CellKind.LUT:
            continue
        table = inst.params.get("table")
        if table is None:
            problems.append(f"LUT {inst.name} has no truth table")
            continue
        size = 1 << len(inst.inputs)
        if table < 0 or table >> size:
            problems.append(
                f"LUT {inst.name} table {table:#x} out of range for "
                f"{len(inst.inputs)} inputs"
            )
    return problems


def _check_outputs(netlist: Netlist) -> list[str]:
    problems = []
    for out in netlist.primary_outputs():
        if out.inputs[0].driver is None:
            problems.append(f"primary output {out.name} is undriven")
    return problems


def _check_loops(netlist: Netlist) -> list[str]:
    try:
        netlist.topo_order()
    except ValidationError as exc:
        return [str(exc)]
    return []

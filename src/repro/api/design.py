"""Design and device resolution shared by the facade and the drivers.

One place turns a :class:`~repro.api.spec.RunSpec` (or plain arguments)
into the front-end artifacts every downstream layer consumes: a
:class:`~repro.generators.registry.DesignBundle` and a
:class:`~repro.arch.device.Device`.  The experiment drivers in
:mod:`repro.analysis.experiments` resolve through the same functions,
so "which designs exist and how they are built" has a single source of
truth.
"""

from __future__ import annotations

from repro.arch.device import Device, DeviceSpec, XC4000_FAMILY, pick_device
from repro.errors import SpecError
from repro.generators.des import make_des
from repro.generators.fsm import make_fsm
from repro.generators.mips import make_mips
from repro.generators.random_logic import random_sequential_netlist
from repro.generators.registry import DesignBundle, build_design
from repro.synth.pack import pack_netlist
from repro.synth.techmap import map_to_luts

#: Generators that accept keyword parameters (``RunSpec.design_params``)
#: for non-registry variants — e.g. a reduced 2-round DES demo.
GENERATOR_BUILDERS = {
    "des": make_des,
    "mips": make_mips,
    "fsm": make_fsm,
    "random": random_sequential_netlist,
}


def _bundle_from_netlist(name: str, netlist, kind: str = "custom",
                         paper_clbs: int = 0) -> DesignBundle:
    """Front end (map → pack) for a netlist outside the registry."""
    mapped = map_to_luts(netlist)
    packed = pack_netlist(mapped)
    return DesignBundle(
        name=name, netlist=netlist, mapped=mapped, packed=packed,
        paper_clbs=paper_clbs, kind=kind,
    )


def load_bundle(spec) -> DesignBundle:
    """Resolve ``spec``'s design source into a :class:`DesignBundle`.

    Three sources, checked in order: a BLIF file (``blif_path``), a
    parameterized generator (``design`` + ``design_params``), or a
    registry benchmark (``design`` alone).
    """
    if spec.blif_path is not None:
        from repro.netlist.blif import read_blif

        try:
            with open(spec.blif_path) as fh:
                text = fh.read()
        except OSError as exc:
            raise SpecError(
                f"cannot read BLIF file {spec.blif_path!r}: {exc}"
            ) from exc
        netlist = read_blif(text, name=spec.design_label)
        return _bundle_from_netlist(spec.design_label, netlist, kind="blif")
    if spec.design_params is not None:
        builder = GENERATOR_BUILDERS[spec.design]
        params = dict(spec.design_params)
        # every parameterizable generator takes a seed; the spec's
        # design_seed applies unless the params pin one explicitly
        params.setdefault("seed", spec.design_seed)
        netlist = builder(**params)
        return _bundle_from_netlist(netlist.name, netlist, kind="custom")
    return build_design(spec.design, seed=spec.design_seed)


def device_by_name(name: str, channel_width: int | None = None) -> Device:
    """A family member by name, optionally with a channel override."""
    for family_spec in XC4000_FAMILY:
        if family_spec.name == name:
            if channel_width is not None:
                family_spec = DeviceSpec(
                    family_spec.name, family_spec.nx, family_spec.ny,
                    channel_width, family_spec.io_per_slot,
                )
            return Device(family_spec)
    raise SpecError(
        f"unknown device {name!r}; family members: "
        + ", ".join(s.name for s in XC4000_FAMILY)
    )


def device_for(packed, device: str | None = None,
               channel_width: int | None = None,
               area_overhead: float = 0.35,
               min_io_extra: int = 16) -> Device:
    """The device a spec implies: named member, or historical auto-pick."""
    if device is not None:
        return device_by_name(device, channel_width)
    return pick_device(
        packed.n_clbs,
        area_overhead=area_overhead,
        min_io=len(packed.io_blocks()) + min_io_extra,
        channel_width=channel_width,
    )

"""Control and observation logic synthesis (paper steps 18-19).

Both instrument kinds are emitted directly as *mapped primitives*
(LUTs, DFFs, IO markers) so they drop straight into the incremental
packing and tile-confined re-place-and-route:

* an **observation point** watches a set of nets: a parity-compactor
  LUT tree feeds a sticky-flag DFF whose output is exported as a new
  primary output ``obs_flag_<name>``; a direct probe output
  ``obs_probe_<name>`` exposes the raw compacted value.  (The paper:
  "logic may be inserted which automatically detects an error upon its
  occurrence ... designed to raise a flag".)
* a **control point** hijacks a net: new primary inputs
  ``ctl_en_<name>`` / ``ctl_val_<name>`` and a splice LUT3 force the
  signal when enabled ("control logic is introduced into the circuit
  to induce certain states artificially").

Both return the :class:`ChangeSet` the tiling manager consumes, plus
the names of the fresh IO ports.
"""

from __future__ import annotations

from repro.errors import DebugFlowError
from repro.netlist.cells import CellKind
from repro.netlist.core import Net, Netlist
from repro.tiling.eco import ChangeRecorder, ChangeSet

#: LUT3 table for out = en ? val : orig with inputs (orig, val, en)
#: minterm = orig | val<<1 | en<<2
_MUX_TABLE = 0b11001010  # en=0 -> orig (bits 0-3: 0,1,0,1); en=1 -> val
#: LUT2 table for XOR
_XOR2 = 0b0110
#: LUT2 table for OR (sticky flag: flag | pulse)
_OR2 = 0b1110
#: LUT4 table for 4-input XOR (parity compactor)
_XOR4 = 0x6996


def add_observation_point(
    netlist: Netlist,
    watch_nets: list[str],
    name: str,
    sticky: bool = True,
    expected_parity: int = 0,
) -> tuple[ChangeSet, list[str]]:
    """Insert observation logic over ``watch_nets``.

    The compactor computes the parity of the watched nets; a mismatch
    against ``expected_parity`` raises the (optionally sticky) flag.
    Returns (changeset, new primary-output names).
    """
    if not watch_nets:
        raise DebugFlowError("observation point needs at least one net")
    # observation logic is purely additive (existing cells keep their
    # kind, wiring and tables), so the changeset is built directly from
    # the created names instead of diffing the whole netlist — probe
    # commits are the localization hot loop
    base_revision = netlist.revision
    created: set[str] = set()
    nets = [netlist.net(n) for n in watch_nets]
    parity = _parity_tree(netlist, nets, prefix=f"obs_{name}", created=created)
    if expected_parity:
        flip = netlist.add_lut(
            [parity], 0b01, name=f"obs_{name}_pol"
        )
        created.add(flip.name)
        parity = flip.output

    outputs = [f"obs_probe_{name}"]
    created.add(netlist.add_output(f"obs_probe_{name}", parity).name)
    if sticky:
        flag_q = netlist.add_net(f"obs_{name}_flag_q")
        hold = netlist.add_lut(
            [parity, flag_q], _OR2, name=f"obs_{name}_hold"
        )
        created.add(hold.name)
        ff = netlist.add_dff(
            hold.output, name=f"obs_{name}_ff", output=flag_q
        )
        created.add(ff.name)
        created.add(netlist.add_output(f"obs_flag_{name}", flag_q).name)
        outputs.append(f"obs_flag_{name}")
    changes = ChangeSet(
        description=f"observe {name}",
        new_instances=created,
        base_revision=base_revision,
    )
    return changes, outputs


def remove_observation_points(
    netlist: Netlist, names: list[str]
) -> ChangeSet:
    """Retire observation points by name — the inverse of
    :func:`add_observation_point`.

    Observation logic is purely additive and namespaced
    (``obs_<name>_*`` instances plus the ``obs_probe_<name>`` /
    ``obs_flag_<name>`` output markers), so removal deletes exactly
    those instances and prunes the nets they drove; the functional
    netlist is untouched.  Multi-round debug sessions call this between
    probe rounds so stale instrumentation does not accumulate — the
    tile-configuration cache replays the restore commit the same way it
    replays the insertion.

    Returns the removal :class:`ChangeSet` (empty when nothing matched).
    """
    base_revision = netlist.revision
    removed: set[str] = set()
    for name in names:
        prefix = f"obs_{name}_"
        markers = {f"po:obs_probe_{name}", f"po:obs_flag_{name}"}
        targets = [
            inst for inst in netlist.instances()
            if inst.name.startswith(prefix) or inst.name in markers
        ]
        # sinks (output markers, FF, hold) before drivers (parity tree)
        # keeps every intermediate state a valid netlist
        targets.sort(
            key=lambda i: (0 if i.kind is CellKind.OUTPUT else 1, i.name)
        )
        for inst in targets:
            netlist.remove_instance(inst)
            removed.add(inst.name)
    if removed:
        netlist.prune_dangling()
    return ChangeSet(
        description=f"retire {len(names)} observation point(s)",
        removed_instances=removed,
        base_revision=base_revision,
    )


def _parity_tree(
    netlist: Netlist, nets: list[Net], prefix: str,
    created: set[str] | None = None,
) -> Net:
    layer = list(nets)
    stage = 0
    while len(layer) > 1:
        nxt: list[Net] = []
        for i in range(0, len(layer), 4):
            chunk = layer[i : i + 4]
            if len(chunk) == 1:
                nxt.append(chunk[0])
                continue
            table = _XOR4 if len(chunk) == 4 else (
                _XOR2 if len(chunk) == 2 else 0b10010110  # XOR3
            )
            lut = netlist.add_lut(
                chunk, table, name=f"{prefix}_x{stage}_{i // 4}"
            )
            if created is not None:
                created.add(lut.name)
            nxt.append(lut.output)
        layer = nxt
        stage += 1
    return layer[0]


def add_control_point(
    netlist: Netlist, net_name: str, name: str
) -> tuple[ChangeSet, list[str]]:
    """Splice a force mux into ``net_name``.

    Returns (changeset, new primary-input names).  All original sinks
    now read the spliced value; the splice LUT reads the original net.
    """
    with ChangeRecorder(netlist, f"control {name}") as rec:
        original = netlist.net(net_name)
        if original.driver is None:
            raise DebugFlowError(f"net {net_name!r} has no driver to hijack")
        enable = netlist.add_input(f"ctl_en_{name}")
        value = netlist.add_input(f"ctl_val_{name}")
        splice = netlist.add_lut(
            [original, value, enable], _MUX_TABLE, name=f"ctl_{name}_mux"
        )
        moved = netlist.transfer_sinks(
            original,
            splice.output,
            keep=lambda inst, idx: inst is splice,
        )
        if moved == 0:
            raise DebugFlowError(f"net {net_name!r} had no sinks to control")
    assert rec.changes is not None
    return rec.changes, [f"ctl_en_{name}", f"ctl_val_{name}"]


def test_logic_block(
    netlist: Netlist, n_clbs: int, attach_net: str, name: str
) -> ChangeSet:
    """A parameterized block of test logic (the paper's "large counter").

    Builds a ripple counter chain sized to roughly ``n_clbs`` CLBs
    (2 BLEs each) whose LSB toggles only while ``attach_net`` is high,
    and exports the MSB.  Used by the Figure-3 style experiments to
    insert logic of a controlled size.
    """
    if n_clbs < 1:
        raise DebugFlowError("test logic needs at least one CLB")
    # bit i costs one merged LUT+FF BLE plus (below the MSB) one carry
    # LUT: 2n-1 BLEs for n bits = exactly n CLBs after pairing
    n_bits = n_clbs
    with ChangeRecorder(netlist, f"test logic {name} ({n_clbs} CLBs)") as rec:
        gate = netlist.net(attach_net)
        qs: list[Net] = [
            netlist.add_net(f"tl_{name}_q{i}") for i in range(n_bits)
        ]
        carry = gate
        for i in range(n_bits):
            # toggle bit while carry is high: d = q XOR carry
            lut = netlist.add_lut(
                [qs[i], carry], _XOR2, name=f"tl_{name}_x{i}"
            )
            netlist.add_dff(lut.output, name=f"tl_{name}_ff{i}", output=qs[i])
            if i + 1 < n_bits:
                and_lut = netlist.add_lut(
                    [qs[i], carry], 0b1000, name=f"tl_{name}_c{i}"
                )
                carry = and_lut.output
        netlist.add_output(f"tl_{name}_msb", qs[-1])
    assert rec.changes is not None
    return rec.changes

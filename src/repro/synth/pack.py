"""CLB packing: LUT/FF netlist → placeable two-BLE CLB blocks.

The XC4000 CLB of the paper holds two 4-input function generators and two
flip-flops ("two 16-bit lookup tables" [13]).  We model it as two BLEs
(basic logic elements), each a LUT, an FF, or a LUT feeding an FF.

Packing proceeds exactly like a light T-VPack:

1. **BLE formation** — a LUT whose only fanout is a DFF's D pin merges
   with that DFF (the registered-output CLB mode); remaining LUTs and
   DFFs each get their own BLE;
2. **CLB pairing** — BLEs are greedily paired by *attraction* (number of
   shared nets), which keeps tightly-connected logic together and gives
   the placer locality to exploit.

The result, :class:`PackedDesign`, also carries the *block-level netlist*
(:class:`BlockNet`), which is what placement, routing and tiling see:
intra-CLB nets vanish, and each remaining net connects a driver block to
sink blocks.  Primary IOs become IOB blocks placed on the device ring.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from repro.errors import SynthesisError
from repro.netlist.cells import CellKind
from repro.netlist.core import Instance, Netlist


class BlockKind(str, Enum):
    CLB = "CLB"
    IOB_IN = "IOB_IN"
    IOB_OUT = "IOB_OUT"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass
class BLE:
    """One basic logic element: LUT, FF, or LUT→FF pair."""

    lut: str | None
    ff: str | None
    output_net: str
    input_nets: tuple[str, ...]

    @property
    def label(self) -> str:
        return self.lut or self.ff or "<empty>"


@dataclass
class CLB:
    """A packed CLB: up to two BLEs."""

    name: str
    bles: list[BLE]

    def instance_names(self) -> list[str]:
        names = []
        for ble in self.bles:
            if ble.lut:
                names.append(ble.lut)
            if ble.ff:
                names.append(ble.ff)
        return names


@dataclass(frozen=True)
class Block:
    """A placeable unit: one CLB or one IOB."""

    index: int
    name: str
    kind: BlockKind
    instances: tuple[str, ...]

    @property
    def is_clb(self) -> bool:
        return self.kind is BlockKind.CLB


@dataclass(frozen=True)
class BlockNet:
    """A net of the block-level netlist: driver block → sink blocks."""

    index: int
    name: str
    driver: int
    sinks: tuple[int, ...]

    @property
    def n_terminals(self) -> int:
        return 1 + len(self.sinks)


class PackedDesign:
    """The placeable view of a mapped netlist.

    ``nets`` is keyed by a stable integer index: an ECO refresh
    (:func:`refresh_touched_nets`) keeps the index *and* identity of an
    unchanged net so existing routes stay valid, retires removed nets,
    and allocates fresh indices for new ones, in netlist net order;
    ``nets`` therefore iterates in ascending index order.

    A block → net-index map (built on the first :meth:`nets_touching_blocks`
    and kept current by every refresh) answers which nets touch a set
    of blocks without a walk over every net.  ``revision`` is the
    netlist revision the block nets reflect: a refresh sets it to the
    netlist's revision, and the netlist's edits since then
    (:meth:`~repro.netlist.core.Netlist.edits_since`) are absorbed by
    re-deriving only the nets they can have touched.

    :meth:`fork` gives a run its own packing of a netlist copy without
    packing again: :func:`pack_netlist` runs once per design.
    """

    def __init__(
        self,
        netlist: Netlist,
        clbs: list[CLB],
        blocks: list[Block],
        nets: dict[int, BlockNet],
        block_of_instance: dict[str, int],
    ) -> None:
        self.netlist = netlist
        self.clbs = clbs
        self.blocks = blocks
        self.nets = nets
        self.block_of_instance = block_of_instance
        self.revision = netlist.revision
        self._net_index_of_name = {net.name: idx for idx, net in nets.items()}
        self._next_net_index = max(nets, default=-1) + 1
        self._clb_by_name = {clb.name: clb for clb in clbs}
        self._nets_of_block: dict[int, set[int]] | None = None

    def fork(self, netlist: Netlist) -> "PackedDesign":
        """This packing over ``netlist``, a copy of its own netlist
        (:meth:`~repro.netlist.core.Netlist.copy`): equal to
        :func:`pack_netlist` of the copy when this packing is one.

        Shares the frozen :class:`Block` and :class:`BlockNet` records
        and copies every mutable one (the CLB and BLE lists, the
        ``nets`` dict, the name maps), so edits to either side stay
        there.  Raises :class:`SynthesisError` if this packing lags its
        netlist (a fork would carry its stale nets) or ``netlist`` holds
        an unmapped instance.
        """
        if self.revision != self.netlist.revision:
            raise SynthesisError(
                f"cannot fork the packing of {self.netlist.name!r}: it "
                f"reflects revision {self.revision}, the netlist is at "
                f"{self.netlist.revision}"
            )
        _check_mapped(netlist)
        clbs = [
            CLB(clb.name, [
                BLE(ble.lut, ble.ff, ble.output_net, ble.input_nets)
                for ble in clb.bles
            ])
            for clb in self.clbs
        ]
        fork = PackedDesign(
            netlist, clbs, list(self.blocks), dict(self.nets),
            dict(self.block_of_instance),
        )
        fork._next_net_index = self._next_net_index
        return fork

    @property
    def n_clbs(self) -> int:
        return len(self.clbs)

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)

    def clb_blocks(self) -> list[Block]:
        return [b for b in self.blocks if b.is_clb]

    def io_blocks(self) -> list[Block]:
        return [b for b in self.blocks if not b.is_clb]

    def blocks_of_instances(self, instance_names) -> set[int]:
        """Block indices touched by the given netlist instances.

        Instances unknown to the packing (e.g. freshly added by an ECO
        and not yet re-packed) are ignored — the caller decides where
        new logic lands.
        """
        found = set()
        for name in instance_names:
            idx = self.block_of_instance.get(name)
            if idx is not None:
                found.add(idx)
        return found

    def nets_of_block(self) -> dict[int, set[int]]:
        """Block index → indices of the block nets it drives or sinks.

        Built on first use, then kept current by :meth:`_put_net` and
        :meth:`_drop_net`; treat it as read-only.
        """
        if self._nets_of_block is None:
            table: dict[int, set[int]] = {}
            for net in self.nets.values():
                for b in (net.driver, *net.sinks):
                    table.setdefault(b, set()).add(net.index)
            self._nets_of_block = table
        return self._nets_of_block

    def nets_touching_blocks(self, block_indices) -> list[BlockNet]:
        """Block nets with a terminal in ``block_indices``, by index."""
        table = self.nets_of_block()
        hits: set[int] = set()
        for b in block_indices:
            hits.update(table.get(b, ()))
        return [self.nets[idx] for idx in sorted(hits)]

    def _put_net(self, net: BlockNet) -> None:
        """Install ``net`` at its index, replacing any net there."""
        old = self.nets.get(net.index)
        self.nets[net.index] = net
        self._net_index_of_name[net.name] = net.index
        table = self._nets_of_block
        if table is not None:
            if old is not None:
                for b in (old.driver, *old.sinks):
                    table[b].discard(old.index)
            for b in (net.driver, *net.sinks):
                table.setdefault(b, set()).add(net.index)

    def _drop_net(self, name: str) -> int:
        """Retire the block net called ``name``; returns its index."""
        idx = self._net_index_of_name.pop(name)
        old = self.nets.pop(idx)
        table = self._nets_of_block
        if table is not None:
            for b in (old.driver, *old.sinks):
                table[b].discard(idx)
        return idx

    def clb_of_block(self, block_index: int) -> CLB:
        """The CLB packing record behind a CLB block.

        Blocks from the initial packing line up with ``clbs`` by index,
        but ECO-added CLBs get block indices past the IOBs, so the
        lookup goes through the block name.
        """
        block = self.blocks[block_index]
        if not block.is_clb:
            raise SynthesisError(f"block {block.name} is not a CLB")
        return self._clb_by_name[block.name]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PackedDesign({self.netlist.name!r}, {self.n_clbs} CLBs, "
            f"{len(self.nets)} block nets)"
        )


def pack_netlist(mapped: Netlist) -> PackedDesign:
    """Pack a mapped (LUT/DFF/IO-only) netlist into CLB blocks."""
    _check_mapped(mapped)
    luts = [i for i in mapped.instances() if i.kind is CellKind.LUT]
    bles = _form_bles(mapped.flip_flops(), luts)
    clbs = _pair_bles(mapped, bles)
    return _build_blocks(mapped, clbs)


# ----------------------------------------------------------------------
# BLE formation
# ----------------------------------------------------------------------

def _check_mapped(netlist: Netlist) -> None:
    allowed = {CellKind.INPUT, CellKind.OUTPUT, CellKind.LUT, CellKind.DFF}
    for inst in netlist.instances():
        if inst.kind not in allowed:
            raise SynthesisError(
                f"cannot pack unmapped instance {inst.name} ({inst.kind}); "
                "run map_to_luts first"
            )


def _form_bles(ffs: list[Instance], luts: list[Instance]) -> list[BLE]:
    """One BLE per FF, then one per LUT no FF absorbed.

    An FF whose D net has fanout 1 and is driven by one of ``luts`` (by
    name) absorbs that LUT into its BLE, the first such FF only.
    """
    free = {lut.name for lut in luts}
    bles: list[BLE] = []
    for ff in ffs:
        d_net = ff.inputs[0]
        driver = d_net.driver
        if driver is not None and driver.name in free and d_net.fanout == 1:
            free.discard(driver.name)
            bles.append(BLE(driver.name, ff.name, ff.output.name,
                            tuple(n.name for n in driver.inputs)))
        else:
            bles.append(BLE(None, ff.name, ff.output.name, (d_net.name,)))
    for lut in luts:
        if lut.name in free:
            bles.append(BLE(lut.name, None, lut.output.name,
                            tuple(n.name for n in lut.inputs)))
    return bles


# ----------------------------------------------------------------------
# CLB pairing
# ----------------------------------------------------------------------

def _pair_bles(netlist: Netlist, bles: list[BLE]) -> list[CLB]:
    """Greedy attraction pairing; always fills CLBs to two BLEs."""
    net_to_bles: dict[str, list[int]] = {}
    for i, ble in enumerate(bles):
        for net_name in set(ble.input_nets) | {ble.output_net}:
            net_to_bles.setdefault(net_name, []).append(i)

    paired = [False] * len(bles)
    clbs: list[CLB] = []
    for i, ble in enumerate(bles):
        if paired[i]:
            continue
        paired[i] = True
        partner = _best_partner(bles, paired, net_to_bles, i)
        members = [ble]
        if partner is not None:
            paired[partner] = True
            members.append(bles[partner])
        clbs.append(CLB(name=f"clb{len(clbs)}", bles=members))
    return clbs


def _best_partner(
    bles: list[BLE],
    paired: list[bool],
    net_to_bles: dict[str, list[int]],
    i: int,
) -> int | None:
    """Unpaired BLE with the most shared nets; falls back to the next
    unpaired BLE so no CLB is left half-empty unnecessarily."""
    scores: dict[int, int] = {}
    ble = bles[i]
    for net_name in set(ble.input_nets) | {ble.output_net}:
        for j in net_to_bles.get(net_name, ()):
            if j != i and not paired[j]:
                scores[j] = scores.get(j, 0) + 1
    if scores:
        best = max(scores.items(), key=lambda kv: (kv[1], -kv[0]))
        return best[0]
    for j in range(i + 1, len(bles)):
        if not paired[j]:
            return j
    return None


# ----------------------------------------------------------------------
# block-level netlist
# ----------------------------------------------------------------------

def _build_blocks(netlist: Netlist, clbs: list[CLB]) -> PackedDesign:
    blocks: list[Block] = []
    block_of_instance: dict[str, int] = {}

    for clb in clbs:
        idx = len(blocks)
        names = tuple(clb.instance_names())
        blocks.append(Block(idx, clb.name, BlockKind.CLB, names))
        for name in names:
            block_of_instance[name] = idx

    for pi in netlist.primary_inputs():
        idx = len(blocks)
        blocks.append(Block(idx, pi.name, BlockKind.IOB_IN, (pi.name,)))
        block_of_instance[pi.name] = idx
    for po in netlist.primary_outputs():
        idx = len(blocks)
        blocks.append(Block(idx, po.name, BlockKind.IOB_OUT, (po.name,)))
        block_of_instance[po.name] = idx

    nets: dict[int, BlockNet] = {}
    for net in netlist.nets():
        blocknet = _derive_block_net(net, block_of_instance, len(nets))
        if blocknet is not None:
            nets[blocknet.index] = blocknet

    return PackedDesign(netlist, clbs, blocks, nets, block_of_instance)


def _derive_block_net(net, block_of_instance: dict[str, int], index: int):
    if net.driver is None:
        return None
    driver_block = block_of_instance.get(net.driver.name)
    if driver_block is None:
        return None
    sink_blocks: list[int] = []
    for sink, _ in net.sinks:
        b = block_of_instance.get(sink.name)
        if b is not None and b != driver_block and b not in sink_blocks:
            sink_blocks.append(b)
    if not sink_blocks:
        return None
    return BlockNet(index, net.name, driver_block, tuple(sorted(sink_blocks)))


# ----------------------------------------------------------------------
# incremental packing (ECO support)
# ----------------------------------------------------------------------

def extend_packing(packed: PackedDesign, new_instance_names: set[str]) -> set[int]:
    """Pack freshly added instances into new blocks; return their indices.

    Called after a debugging change added LUT/DFF instances (and possibly
    primary outputs for observation flags) to ``packed.netlist``.  New
    LUT→FF pairs merge into one BLE; BLEs pair into new CLBs; new IO
    markers become IOB blocks.  Existing blocks are never repacked — the
    paper's flow re-places tiles, it does not re-synthesize them.
    """
    netlist = packed.netlist
    fresh = [
        netlist.instance(name)
        for name in sorted(new_instance_names)
        if netlist.has_instance(name) and name not in packed.block_of_instance
    ]
    new_block_indices: set[int] = set()
    if not fresh:
        return new_block_indices

    luts = [i for i in fresh if i.kind is CellKind.LUT]
    ffs = [i for i in fresh if i.kind is CellKind.DFF]
    ios = [i for i in fresh if i.is_io]
    other = [
        i for i in fresh if not (i.is_io or i.kind in (CellKind.LUT, CellKind.DFF))
    ]
    if other:
        raise SynthesisError(
            "ECO instances must be mapped primitives, got: "
            + ", ".join(f"{i.name}({i.kind})" for i in other[:5])
        )

    bles = _form_bles(ffs, luts)
    for i in range(0, len(bles), 2):
        members = bles[i : i + 2]
        clb = CLB(name=f"clb{len(packed.clbs)}", bles=list(members))
        packed.clbs.append(clb)
        packed._clb_by_name[clb.name] = clb
        idx = len(packed.blocks)
        names = tuple(clb.instance_names())
        packed.blocks.append(Block(idx, clb.name, BlockKind.CLB, names))
        for name in names:
            packed.block_of_instance[name] = idx
        new_block_indices.add(idx)

    for io in ios:
        idx = len(packed.blocks)
        kind = BlockKind.IOB_IN if io.kind is CellKind.INPUT else BlockKind.IOB_OUT
        packed.blocks.append(Block(idx, io.name, kind, (io.name,)))
        packed.block_of_instance[io.name] = idx
        new_block_indices.add(idx)
    return new_block_indices


def retire_instances(packed: PackedDesign, removed_names) -> set[int]:
    """Detach deleted netlist instances from the packing bookkeeping.

    Called after an ECO removed instances (e.g. retiring stale
    observation points): their ``block_of_instance`` entries are
    dropped, their BLEs emptied, and the owning :class:`Block` records
    rebuilt without them.  Block *indices* are positional throughout
    placement, routing and tiling, so emptied blocks are never deleted
    — they stay placed as zero-logic blocks whose configuration frames
    are empty (a retired CLB/IOB site, exactly what clearing the
    instrumentation out of a tile leaves behind).

    Returns the indices of the blocks that lost instances.  Callers
    must resolve ``blocks_of_instances`` for the removal *before* this
    runs (the mapping is consumed here), and refresh the block nets
    after (:func:`repro.tiling.manager.absorb_changes` does all three).
    """
    touched: set[int] = set()
    for name in sorted(removed_names):
        idx = packed.block_of_instance.pop(name, None)
        if idx is None:
            continue
        touched.add(idx)
        block = packed.blocks[idx]
        if block.is_clb:
            clb = packed._clb_by_name[block.name]
            for ble in clb.bles:
                if ble.lut == name:
                    ble.lut = None
                if ble.ff == name:
                    ble.ff = None
            clb.bles = [b for b in clb.bles if b.lut or b.ff]
        packed.blocks[idx] = Block(
            idx, block.name, block.kind,
            tuple(n for n in block.instances if n != name),
        )
    return touched


def miscast_instances(packed: PackedDesign, names) -> set[str]:
    """Instances among ``names`` packed in a BLE role their kind no
    longer fills: a LUT held as a BLE's flip-flop or a flip-flop held as
    its LUT.  The netlist's edit log reports an instance removed and
    re-added under the same name as changed, so a kind swap arrives
    here; :func:`repro.tiling.manager.absorb_changes` retires and
    re-packs each one."""
    netlist = packed.netlist
    found: set[str] = set()
    for name in names:
        idx = packed.block_of_instance.get(name)
        if idx is None or not packed.blocks[idx].is_clb:
            continue
        kind = netlist.instance(name).kind
        for ble in packed._clb_by_name[packed.blocks[idx].name].bles:
            if (ble.lut == name and kind is not CellKind.LUT) or (
                ble.ff == name and kind is not CellKind.DFF
            ):
                found.add(name)
    return found


def _resync_nets(
    packed: PackedDesign, nets, gone: list[str]
) -> tuple[set[int], set[int], set[int]]:
    """Re-derive the block nets of ``nets`` (netlist nets, in netlist
    order) and retire the block nets named in ``gone`` (whose netlist
    nets no longer exist).  Returns (new, changed, removed) indices."""
    new_ids: set[int] = set()
    changed_ids: set[int] = set()
    removed_ids: set[int] = set()
    index_of = packed._net_index_of_name
    for net in nets:
        old_idx = index_of.get(net.name)
        idx = packed._next_net_index if old_idx is None else old_idx
        blocknet = _derive_block_net(net, packed.block_of_instance, idx)
        if blocknet is None:
            if old_idx is not None:
                removed_ids.add(packed._drop_net(net.name))
        elif old_idx is None:
            packed._next_net_index += 1
            packed._put_net(blocknet)
            new_ids.add(idx)
        else:
            old = packed.nets[idx]
            if old.driver != blocknet.driver or old.sinks != blocknet.sinks:
                packed._put_net(blocknet)
                changed_ids.add(idx)
    for name in gone:
        removed_ids.add(packed._drop_net(name))
    packed.revision = packed.netlist.revision
    return new_ids, changed_ids, removed_ids


def refresh_touched_nets(
    packed: PackedDesign, instance_names, block_indices
) -> tuple[set[int], set[int], set[int]]:
    """Re-derive the block nets an ECO touched; returns (new, changed,
    removed) net indices.

    Re-derives the input and output nets of ``instance_names`` (the
    new and changed instances) and every block net with a
    terminal in ``block_indices`` (the blocks of changed and removed
    instances, and the new blocks), in netlist net order, so fresh
    indices match a walk over every net.  Valid when the instances and
    blocks cover every netlist edit since ``packed.revision`` (the edit
    log's fold does): then no other net's driver, sinks or blocks
    moved, and the returned indices and the packing equal the full
    walk's (``tests/conftest.py::refresh_block_nets``, the reference).
    """
    netlist = packed.netlist
    names: set[str] = set()
    for inst_name in instance_names:
        if netlist.has_instance(inst_name):
            inst = netlist.instance(inst_name)
            names.update(net.name for net in inst.inputs)
            if inst.output is not None:
                names.add(inst.output.name)
    table = packed.nets_of_block()
    for b in block_indices:
        names.update(packed.nets[idx].name for idx in table.get(b, ()))
    present = sorted(
        (netlist.net(name) for name in names if netlist.has_net(name)),
        key=lambda net: net.serial,
    )
    gone = [name for name in names if not netlist.has_net(name)]
    return _resync_nets(packed, present, gone)

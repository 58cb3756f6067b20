"""Mock bitstream: per-CLB-site configuration frames.

A real XC4000 bitstream configures CLB function generators, flip-flops
and routing in column-ordered frames.  The model here keeps exactly the
information the experiments need:

* per *site*, a canonical byte string encoding the occupying block's
  logic configuration (LUT truth tables, FF inits, BLE wiring);
* per *tile*, a digest over its sites.

Two layouts agree on a tile iff the tile's digest matches — that is the
**lock invariant** the paper claims for unaffected tiles ("keeping the
rest of the design fixed insures that no errors will be introduced in
the unchanged portions").  Tests assert it after every tile-confined
commit.

Routing note: intra-tile routing is part of the frame; the portions of
*interface* nets outside affected tiles are preserved by construction
(see :func:`repro.pnr.flow.replace_region`), while brand-new nets of
inserted test logic may legitimately cross unaffected tiles — exactly
like new wires through spare routing on the real device — so global
routing is deliberately not hashed into tile frames.
"""

from __future__ import annotations

import hashlib

from repro.geometry import Rect
from repro.pnr.flow import Layout
from repro.synth.pack import PackedDesign


def block_logic_config(packed: PackedDesign, block_index: int) -> bytes:
    """Canonical byte encoding of one block's logic configuration.

    For a CLB this is the per-BLE frame content (LUT truth tables and
    input wiring, FF inits and D nets) — the bytes the bitstream frames
    hash, read from the live netlist.  The P&R caches deliberately do
    not key on it (placement and routing never read logic content), so
    a replayed layout still carries the current logic into its frames.
    IOBs encode their direction and pad name.
    """
    block = packed.blocks[block_index]
    if not block.is_clb:
        return f"{block.kind}:{block.name}".encode()
    netlist = packed.netlist
    clb = packed.clb_of_block(block_index)
    parts: list[bytes] = []
    for ble in clb.bles:
        if ble.lut and netlist.has_instance(ble.lut):
            lut = netlist.instance(ble.lut)
            parts.append(b"L")
            parts.append(lut.params.get("table", 0).to_bytes(2, "little"))
            parts.append(",".join(n.name for n in lut.inputs).encode())
        if ble.ff and netlist.has_instance(ble.ff):
            ff = netlist.instance(ble.ff)
            parts.append(b"F")
            parts.append(bytes([ff.params.get("init", 0)]))
            parts.append(ff.inputs[0].name.encode())
    return b"|".join(parts)


class Bitstream:
    """Configuration frames derived from a layout."""

    def __init__(self, layout: Layout, include_routing: bool = True) -> None:
        self.layout = layout
        self.site_config: dict[tuple[int, int], bytes] = {}
        self._build_logic()
        if include_routing:
            self._attach_intra_tile_routing()

    def _build_logic(self) -> None:
        packed = self.layout.packed
        for site, block_idx in self.layout.placement.clb_at.items():
            self.site_config[site] = block_logic_config(packed, block_idx)

    def _attach_intra_tile_routing(self) -> None:
        """Fold each route edge into the config of the sites it touches."""
        extra: dict[tuple[int, int], list[bytes]] = {}
        edge_tuple = self.layout.state.fabric.edge_tuple
        for tree in self.layout.routes.values():
            for a, b in sorted(map(edge_tuple, tree.eids)):
                tag = f"r{a[0]},{a[1]}-{b[0]},{b[1]}".encode()
                extra.setdefault(a, []).append(tag)
        for site, tags in extra.items():
            base = self.site_config.get(site, b"")
            self.site_config[site] = base + b"#" + b";".join(sorted(tags))

    def frame_digest(self, rect: Rect) -> str:
        """Digest of every site configuration inside ``rect``."""
        h = hashlib.sha256()
        for site in rect.sites():
            h.update(f"{site[0]},{site[1]}:".encode())
            h.update(self.site_config.get(site, b"<empty>"))
            h.update(b"\n")
        return h.hexdigest()


def frames_for_tiles(
    layout: Layout, rects: list[Rect], include_routing: bool = False
) -> list[str]:
    """Per-tile digests; compare across commits to check the invariant.

    ``include_routing`` folds intra-tile route segments into the frames;
    leave it off to compare pure logic configuration (new test-logic
    nets may cross quiet tiles through spare channels, see module docs).
    """
    bitstream = Bitstream(layout, include_routing=include_routing)
    return [bitstream.frame_digest(rect) for rect in rects]

"""Placement state: block → site assignment with legality tracking.

A :class:`Placement` maps every block of a :class:`PackedDesign` to a
device site: CLB blocks to exclusive CLB-grid sites, IOB blocks to ring
slots with per-slot capacity.  :class:`PlaceConstraints` carries what
tiling needs from the placer: allowed regions per block and the free
sites of cleared tiles.  Which blocks stay locked — the physical-design
constraints of paper §3.2 ("the default is that all resources are
locked") — is :func:`~repro.pnr.placer.place_design`'s ``movable``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.arch.device import Device
from repro.errors import PlacementError
from repro.geometry import Rect
from repro.synth.pack import BlockKind, PackedDesign


@dataclass
class PlaceConstraints:
    """Constraints handed to the placer.

    ``regions`` limits each listed CLB block to a rectangle; unlisted
    blocks may use the whole grid.  ``free_sites`` (when given)
    restricts *all* movable blocks to that site set — the tiling manager
    passes the cleared tiles here.
    """

    regions: dict[int, Rect] = field(default_factory=dict)
    free_sites: set[tuple[int, int]] | None = None

    def region_of(self, block: int, device: Device) -> Rect:
        return self.regions.get(block, device.clb_region)


class Placement:
    """Mutable block-to-site assignment."""

    def __init__(self, device: Device, packed: PackedDesign) -> None:
        self.device = device
        self.packed = packed
        self.pos: dict[int, tuple[int, int]] = {}
        self.clb_at: dict[tuple[int, int], int] = {}
        self.io_at: dict[tuple[int, int], list[int]] = {}

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------

    def place_clb(self, block: int, site: tuple[int, int]) -> None:
        if not self.device.is_clb_site(*site):
            raise PlacementError(f"{site} is not a CLB site")
        occupant = self.clb_at.get(site)
        if occupant is not None and occupant != block:
            raise PlacementError(f"site {site} already holds block {occupant}")
        self.remove(block)
        self.pos[block] = site
        self.clb_at[site] = block

    def place_io(self, block: int, slot: tuple[int, int]) -> None:
        if not self.device.is_io_slot(*slot):
            raise PlacementError(f"{slot} is not an IOB slot")
        pads = self.io_at.setdefault(slot, [])
        if block not in pads and len(pads) >= self.device.io_per_slot:
            raise PlacementError(f"IOB slot {slot} is full")
        self.remove(block)
        self.pos[block] = slot
        self.io_at.setdefault(slot, []).append(block)

    def remove(self, block: int) -> None:
        site = self.pos.pop(block, None)
        if site is None:
            return
        if site in self.clb_at and self.clb_at[site] == block:
            del self.clb_at[site]
        elif site in self.io_at and block in self.io_at[site]:
            self.io_at[site].remove(block)
            if not self.io_at[site]:
                del self.io_at[site]

    def swap_clbs(self, a: int, b: int) -> None:
        sa, sb = self.pos[a], self.pos[b]
        self.clb_at[sa], self.clb_at[sb] = b, a
        self.pos[a], self.pos[b] = sb, sa

    def move_clb(self, block: int, site: tuple[int, int]) -> None:
        """Move to a known-empty CLB site (no legality re-check)."""
        old = self.pos[block]
        del self.clb_at[old]
        self.pos[block] = site
        self.clb_at[site] = block

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def site_of(self, block: int) -> tuple[int, int]:
        try:
            return self.pos[block]
        except KeyError:
            raise PlacementError(f"block {block} is not placed") from None

    def is_placed(self, block: int) -> bool:
        return block in self.pos

    def blocks_in_region(self, region: Rect) -> list[int]:
        """CLB blocks currently inside ``region``."""
        found = []
        for site, block in self.clb_at.items():
            if region.contains(*site):
                found.append(block)
        return found

    def free_clb_sites_in(self, region: Rect) -> list[tuple[int, int]]:
        return [
            site
            for site in region.sites()
            if self.device.is_clb_site(*site) and site not in self.clb_at
        ]

    def copy(self) -> "Placement":
        clone = Placement(self.device, self.packed)
        clone.pos = dict(self.pos)
        clone.clb_at = dict(self.clb_at)
        clone.io_at = {slot: list(pads) for slot, pads in self.io_at.items()}
        return clone

    def check_complete(self) -> None:
        """Every block placed, every CLB on a legal exclusive site."""
        for block in self.packed.blocks:
            if block.index not in self.pos:
                raise PlacementError(f"block {block.name} is unplaced")
            site = self.pos[block.index]
            if block.kind is BlockKind.CLB:
                if not self.device.is_clb_site(*site):
                    raise PlacementError(f"CLB {block.name} on non-CLB site {site}")
                if self.clb_at.get(site) != block.index:
                    raise PlacementError(f"site map corrupt at {site}")
            else:
                if not self.device.is_io_slot(*site):
                    raise PlacementError(f"IOB {block.name} off ring: {site}")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Placement({len(self.pos)}/{self.packed.n_blocks} blocks placed)"

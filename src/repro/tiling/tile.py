"""Tile objects: a rectangle of CLB sites with occupancy accounting.

A tile is "an independent block with a fixed interface" (paper §1.2).
Physically it is a rectangle of the CLB grid; logically it owns the CLB
blocks placed inside it.  ``capacity - used`` is the tile's *slack*, the
unused resources reserved for test-logic introduction and debugging
changes (paper step 5: "re-place-and-route with resource slack").
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.geometry import Rect


@dataclass
class Tile:
    """One tile of the partitioned physical design."""

    index: int
    rect: Rect
    blocks: set[int]

    @property
    def capacity(self) -> int:
        return self.rect.area

    @property
    def used(self) -> int:
        return len(self.blocks)

    @property
    def slack(self) -> int:
        return self.capacity - self.used

    def neighbors(self, tiles: list["Tile"]) -> list[int]:
        """Indices of tiles sharing an edge or corner with this one."""
        return [
            t.index
            for t in tiles
            if t.index != self.index and self.rect.touches(t.rect)
        ]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Tile({self.index}, {self.rect.x0},{self.rect.y0}.."
            f"{self.rect.x1},{self.rect.y1}, used={self.used}/{self.capacity})"
        )


@dataclass(frozen=True)
class TileStats:
    """Aggregate statistics of a tiled layout (feeds Table 1)."""

    n_tiles: int
    total_capacity: int
    total_used: int
    total_slack: int
    inter_tile_nets: int
    area_overhead: float

    @staticmethod
    def measure(tiles: list[Tile], inter_tile_nets: int) -> "TileStats":
        capacity = sum(t.capacity for t in tiles)
        used = sum(t.used for t in tiles)
        overhead = (capacity - used) / used if used else 0.0
        return TileStats(
            n_tiles=len(tiles),
            total_capacity=capacity,
            total_used=used,
            total_slack=capacity - used,
            inter_tile_nets=inter_tile_nets,
            area_overhead=overhead,
        )

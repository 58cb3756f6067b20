"""Tiling — the paper's core contribution.

Physical-design partitioning into independent blocks (tiles) with locked
interfaces and deliberate resource slack:

* :mod:`repro.tiling.tile` — tile geometry and occupancy accounting;
* :mod:`repro.tiling.partition` — tile-boundary determination (grid
  planning, block assignment, min-cut boundary refinement);
* :mod:`repro.tiling.manager` — :class:`TiledLayout`: slack-aware tiled
  placement, affected-tile identification with neighbor expansion,
  tile-confined re-place-and-route, interface re-locking;
* :mod:`repro.tiling.eco` — change descriptors linking netlist-level
  debugging changes to physical tiles (back-annotation, paper §5.1);
* :mod:`repro.tiling.cache` — precomputed tile configurations keyed by
  logic content and locked interface signature, so repeated
  reconfigurations skip place-and-route entirely (the paper's
  spare-configuration mechanism).
"""

from repro.tiling.tile import Tile, TileStats
from repro.tiling.partition import (
    TilingOptions,
    assign_blocks_to_tiles,
    plan_tile_grid,
    refine_boundaries,
)
from repro.tiling.cache import TileConfig, TileConfigCache
from repro.tiling.manager import TiledLayout
from repro.tiling.eco import ChangeSet

__all__ = [
    "Tile",
    "TileStats",
    "TilingOptions",
    "assign_blocks_to_tiles",
    "plan_tile_grid",
    "refine_boundaries",
    "TileConfig",
    "TileConfigCache",
    "TiledLayout",
    "ChangeSet",
]

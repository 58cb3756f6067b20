"""Tile-boundary determination (paper §3.2).

Boundaries are chosen by three cooperating passes:

1. :func:`plan_tile_grid` — geometric planning: a near-square region of
   the device big enough for the design plus the requested area
   overhead, split into a rows x columns grid of tile rectangles whose
   sizes differ by at most one site per dimension;
2. :func:`assign_blocks_to_tiles` — blocks adopt the tile under their
   current (untiled) placement, which inherits the placer's locality;
   overfull tiles shed their least-connected blocks to neighbors;
3. :func:`refine_boundaries` — a KL-style pass that moves blocks between
   adjacent tiles when that reduces inter-tile net cut without
   violating slack targets ("inter-tile interconnect is minimized").
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.arch.device import Device
from repro.errors import TilingError
from repro.geometry import Rect
from repro.pnr.placement import Placement
from repro.synth.pack import PackedDesign
from repro.tiling.tile import Tile


@dataclass(frozen=True)
class TilingOptions:
    """User parameters of paper §3.2.

    Exactly one of ``n_tiles`` / ``tile_clbs`` / ``tile_fraction`` picks
    the granularity.  ``area_overhead`` is the slack target (the paper
    uses 20 %; below 10 % "would not allow enough room").
    """

    n_tiles: int | None = None
    tile_clbs: float | None = None
    tile_fraction: float | None = None
    area_overhead: float = 0.20
    min_tile_side: int = 2
    refine_passes: int = 2

    def resolve_n_tiles(self, n_clbs: int) -> int:
        chosen = [
            v for v in (self.n_tiles, self.tile_clbs, self.tile_fraction)
            if v is not None
        ]
        if len(chosen) != 1:
            raise TilingError(
                "specify exactly one of n_tiles / tile_clbs / tile_fraction"
            )
        if self.n_tiles is not None:
            n = self.n_tiles
        elif self.tile_clbs is not None:
            n = max(1, round(n_clbs / self.tile_clbs))
        else:
            n = max(1, round(1.0 / self.tile_fraction))
        if n < 1:
            raise TilingError(f"invalid tile count {n}")
        return n


def plan_tile_grid(
    n_clbs: int, device: Device, options: TilingOptions
) -> list[Rect]:
    """Tile rectangles covering a region with the requested slack.

    The region is anchored at the device origin; its area is the design
    size scaled by ``1 + area_overhead`` (rounded up to a feasible
    rows x columns split).  Raises :class:`TilingError` when the tiles
    would fall below ``min_tile_side`` or the device is too small.
    """
    n_tiles = options.resolve_n_tiles(n_clbs)
    needed = math.ceil(n_clbs * (1.0 + options.area_overhead))
    if needed > device.nx * device.ny:
        raise TilingError(
            f"device {device.name} lacks {needed} sites for "
            f"{n_clbs} CLBs + overhead"
        )

    tiles_per_row = _tile_grid_rows(n_tiles)
    rows = len(tiles_per_row)
    max_cols = max(tiles_per_row)
    min_side = options.min_tile_side
    # region dimensions: near-square, at least the grid's minimum spans
    width = max(
        max_cols * min_side, min(device.nx, math.ceil(math.sqrt(needed)))
    )
    height = max(rows * min_side, math.ceil(needed / width))
    while width * height < needed or height > device.ny:
        if height > device.ny:
            height = device.ny
            width = math.ceil(needed / height)
        else:
            width += 1
            height = max(rows * min_side, math.ceil(needed / width))
        if width > device.nx:
            raise TilingError("design + overhead does not fit device")
    if width > device.nx or height > device.ny:
        raise TilingError(
            f"a {width}x{height} tiled region exceeds device "
            f"{device.name} ({device.nx}x{device.ny})"
        )
    if width // max_cols < min_side or height // rows < min_side:
        raise TilingError(
            f"{n_tiles} tiles of a {width}x{height} region fall below the "
            f"minimum tile side {min_side}"
        )

    y_cuts = _split_span(height, rows)
    rects = []
    y = 0
    for row_height, row_cols in zip(y_cuts, tiles_per_row):
        x = 0
        for col_width in _split_span(width, row_cols):
            rects.append(Rect(x, y, x + col_width - 1, y + row_height - 1))
            x += col_width
        y += row_height

    # trim individual tiles toward the requested overhead ("tile sizes
    # need not be uniform across a design", paper footnote 4)
    excess = width * height - needed
    for i in range(len(rects) - 1, -1, -1):
        rect = rects[i]
        while excess >= rect.width and rect.height - 1 >= min_side:
            rect = Rect(rect.x0, rect.y0, rect.x1, rect.y1 - 1)
            excess -= rect.width
        rects[i] = rect
    return rects


def _tile_grid_rows(n_tiles: int) -> list[int]:
    """Tiles per row, near-square, works for any count (7 → [3, 2, 2])."""
    rows = max(1, round(math.sqrt(n_tiles)))
    return _split_span(n_tiles, rows)


def _split_span(total: int, parts: int) -> list[int]:
    base = total // parts
    extra = total % parts
    return [base + (1 if i < extra else 0) for i in range(parts)]


def assign_blocks_to_tiles(
    packed: PackedDesign,
    placement: Placement,
    rects: list[Rect],
    max_fill: float = 1.0,
) -> list[Tile]:
    """Adopt blocks into tiles by current location, then fix overflow.

    ``max_fill`` caps each tile's occupancy as a fraction of capacity
    during rebalancing (1.0 = hard capacity only).  Spill blocks move to
    the adjacent tile with the most room.
    """
    tiles = [Tile(i, rect, set()) for i, rect in enumerate(rects)]
    homeless: list[int] = []
    for block in packed.clb_blocks():
        site = placement.site_of(block.index)
        for tile in tiles:
            if tile.rect.contains(*site):
                tile.blocks.add(block.index)
                break
        else:
            homeless.append(block.index)

    limit = {t.index: max(1, int(t.capacity * max_fill)) for t in tiles}

    for block in homeless:
        target = max(tiles, key=lambda t: limit[t.index] - t.used)
        target.blocks.add(block)

    # shed overflow to the roomiest neighbor (BFS by repetition)
    for _ in range(len(tiles) * 4):
        over = [t for t in tiles if t.used > limit[t.index]]
        if not over:
            break
        for tile in over:
            neighbors = [tiles[i] for i in tile.neighbors(tiles)]
            roomy = [n for n in neighbors if n.used < limit[n.index]]
            pool = roomy or [
                t for t in tiles if t.used < limit[t.index] and t is not tile
            ]
            if not pool:
                raise TilingError("design does not fit the tile capacities")
            while tile.used > limit[tile.index] and pool:
                dest = max(pool, key=lambda t: limit[t.index] - t.used)
                if dest.used >= limit[dest.index]:
                    pool.remove(dest)
                    continue
                block = _least_connected_block(packed, tile)
                tile.blocks.remove(block)
                dest.blocks.add(block)
    total = sum(t.used for t in tiles)
    if total != len(packed.clb_blocks()):
        raise TilingError("block-to-tile assignment lost blocks")
    return tiles


def _least_connected_block(packed: PackedDesign, tile: Tile) -> int:
    """The member with the fewest nets to other members (cheapest spill)."""
    members = tile.blocks
    scores: dict[int, int] = {b: 0 for b in members}
    for net in packed.nets.values():
        ends = [net.driver, *net.sinks]
        inside = [b for b in ends if b in members]
        if len(inside) >= 2:
            for b in inside:
                scores[b] += 1
    return min(sorted(scores), key=lambda b: scores[b])


def count_inter_tile_nets(
    packed: PackedDesign, tile_of_block: dict[int, int]
) -> int:
    """Nets whose terminals span more than one tile (or leave the array)."""
    cut = 0
    for net in packed.nets.values():
        tiles_seen = set()
        external = False
        for b in (net.driver, *net.sinks):
            t = tile_of_block.get(b)
            if t is None:
                external = True
            else:
                tiles_seen.add(t)
        if len(tiles_seen) > 1 or (external and tiles_seen):
            cut += 1
    return cut


def refine_boundaries(
    packed: PackedDesign,
    tiles: list[Tile],
    passes: int = 2,
    max_fill: float = 0.95,
) -> int:
    """KL-style cut reduction: greedily move blocks across tile edges.

    Only moves between *adjacent* tiles are considered (tiles stay
    contiguous rectangles; membership, not geometry, is refined).
    Returns the number of moves applied.

    A net whose other placed terminals (``tile_of``; IOBs have none)
    span tiles ``S`` is cut before a move src→dst unless ``S == {src}``
    and after it unless ``S == {dst}``; with no such terminal it is
    never cut.  So the cut-count gain of a move is ``alone[dst] -
    alone[src]``, where ``alone[t]`` counts the block's nets whose other
    terminals all sit in tile ``t`` — one pass over the block's nets
    serves every destination.
    """
    tile_of: dict[int, int] = {}
    for tile in tiles:
        for b in tile.blocks:
            tile_of[b] = tile.index
    adjacency = {t.index: set(t.neighbors(tiles)) for t in tiles}
    limit = {t.index: max(1, int(t.capacity * max_fill)) for t in tiles}

    # a block on a net twice (driver and sink) counts the net twice
    nets_of_block: dict[int, list[tuple[int, ...]]] = {}
    for net in packed.nets.values():
        ends = (net.driver, *net.sinks)
        for b in ends:
            nets_of_block.setdefault(b, []).append(ends)

    moves = 0
    for _ in range(passes):
        improved = False
        for tile in tiles:
            for block in sorted(tile.blocks):
                alone: dict[int, int] = {}
                for ends in nets_of_block.get(block, ()):
                    seen = {tile_of.get(b) for b in ends if b != block}
                    seen.discard(None)
                    if len(seen) == 1:
                        (t,) = seen
                        alone[t] = alone.get(t, 0) + 1
                stay = alone.get(tile.index, 0)
                best_gain, best_dest = 0, None
                for dest_idx in adjacency[tile.index]:
                    if tiles[dest_idx].used >= limit[dest_idx]:
                        continue
                    gain = alone.get(dest_idx, 0) - stay
                    if gain > best_gain:
                        best_gain, best_dest = gain, dest_idx
                if best_dest is not None and tile.used > 1:
                    tile.blocks.remove(block)
                    tiles[best_dest].blocks.add(block)
                    tile_of[block] = best_dest
                    moves += 1
                    improved = True
        if not improved:
            break
    return moves

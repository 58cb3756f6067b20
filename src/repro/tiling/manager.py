""":class:`TiledLayout` — the tiled physical design and its operations.

This is the paper's global flow (§3.1) made executable:

* :meth:`TiledLayout.create` — steps 4-8: re-place with resource slack,
  draw tile boundaries, lock tile interfaces;
* :meth:`TiledLayout.apply_changeset` — steps 17-20: identify and clear
  affected tiles (with neighbor expansion when the new logic needs more
  than the tile's slack), re-place-and-route only those tiles with the
  interfaces of every other tile locked, then re-lock;
* :meth:`TiledLayout.affected_tiles_for_logic` /
  :meth:`TiledLayout.max_logic_for_test_points` — the analytical models
  behind Figures 3 and 4;
* :func:`replay_or_compute` — the one precomputed-configuration path.
  Tile commits and whole-design P&R
  (:func:`repro.tiling.cache.cached_full_place_and_route`, and the
  unrouted :func:`repro.tiling.cache.cached_full_place`) all replay a
  stored :class:`~repro.tiling.cache.TileConfig` through it, or compute,
  capture and store a fresh one; it records each verdict once, after
  verification, and is where the ``replay_reject`` chaos fault denies a
  replay.

The lock invariant — configuration frames of unaffected tiles are
byte-identical across a change — is checked by
:mod:`repro.emu.bitstream` and asserted in the property-based tests.
"""

from __future__ import annotations

import hashlib
from array import array
from collections import deque
from dataclasses import dataclass
from typing import Callable

from repro.arch.device import Device
from repro.errors import TilingError
from repro.geometry import Rect
from repro.pnr.effort import EffortMeter, EffortPreset, EFFORT_PRESETS
from repro.pnr.flow import (
    Layout,
    apply_region_config,
    capture_region_config,
    replace_region,
)
from repro.pnr.placement import PlaceConstraints
from repro.resilience.chaos import replay_denied
from repro.synth.pack import (
    PackedDesign,
    extend_packing,
    miscast_instances,
    refresh_touched_nets,
    retire_instances,
)
from repro.tiling.cache import (
    TileConfig,
    TileConfigCache,
    cached_full_place,
    cached_full_place_and_route,
    pnr_key_header,
)
from repro.tiling.partition import (
    TilingOptions,
    assign_blocks_to_tiles,
    count_inter_tile_nets,
    plan_tile_grid,
    refine_boundaries,
)
from repro.tiling.tile import Tile, TileStats


def replay_or_compute(
    cache: TileConfigCache | None,
    key: str | None,
    layout: Layout,
    movable: set[int],
    io_blocks: set[int],
    net_ids: list[int],
    regions: list[Rect],
    meter: EffortMeter,
    fresh: Callable[[], Layout],
) -> tuple[Layout, bool]:
    """The one precomputed-configuration path: replay or compute, once.

    The stored :class:`TileConfig` for ``key`` is trusted only after
    :func:`apply_region_config` has verified it against ``layout``
    (block and net names, sites inside ``regions``, terminal membership,
    channel capacity) and installed it; an armed ``replay_reject`` chaos
    fault denies it before that.  Otherwise ``fresh()`` places and
    routes from scratch and returns the layout holding the result, and
    its configuration of ``movable``, ``io_blocks`` and ``net_ids`` is
    captured and stored under ``key``.  The verdict — hit, miss, or
    rejected — is recorded exactly once, after verification.  With no
    ``cache`` this is just ``fresh()``.

    Returns ``(layout, replayed)``.
    """
    if cache is None:
        return fresh(), False
    config = cache.lookup(key)
    verdict = "miss"
    if config is not None:
        verdict = "rejected"
        if not replay_denied():
            meter.begin_invocation()
            replayed = apply_region_config(
                layout, movable, io_blocks, net_ids, regions,
                config.sites, config.io_slots, config.routes,
                config.over_allow,
            )
            meter.end_invocation()
            if replayed:
                cache.record("hit")
                return layout, True
    cache.record(verdict)
    layout = fresh()
    cache.store(key, TileConfig(
        *capture_region_config(layout, movable, io_blocks, net_ids)
    ))
    return layout, False


def absorb_changes(
    packed: PackedDesign, layout: Layout | None
) -> tuple[set[int], set[int], list[int]]:
    """Back-annotate every netlist edit since the packing's last refresh
    into the packing and ``layout``.

    Reads :meth:`~repro.netlist.core.Netlist.edits_since`
    ``packed.revision``, resolves the changed blocks, retires removed
    instances, packs new ones into new blocks, re-derives the block
    nets and drops the routes of retired nets.  Every strategy's commit
    starts here.  Only the nets of new and changed instances and the
    block nets touching changed, retired or new blocks are re-derived
    (:func:`refresh_touched_nets`): the log names every instance edit,
    so the result equals a walk over every net (the tests' reference,
    ``tests/conftest.py::refresh_block_nets``) at O(change).  A changed
    instance whose kind no longer fills its BLE role (removed and
    re-added under its name as another kind) is retired and packed
    again like a new one.

    Returns (changed blocks, new blocks, net indices needing routes).
    """
    changed, new, removed = packed.netlist.edits_since(packed.revision)
    recast = miscast_instances(packed, changed)
    changed_blocks = packed.blocks_of_instances(changed | removed)
    retire_instances(packed, removed | recast)
    new_blocks = extend_packing(packed, new | recast)
    new_ids, changed_ids, removed_ids = refresh_touched_nets(
        packed, changed | new, changed_blocks | new_blocks
    )
    if layout is not None:
        for idx in removed_ids:
            old = layout.routes.pop(idx, None)
            if old is not None:
                layout.state.remove(old)
    return changed_blocks, new_blocks, sorted(new_ids | changed_ids)


@dataclass
class CommitReport:
    """Result of one tile-confined debugging change."""

    description: str
    affected_tiles: list[int]
    effort: EffortMeter
    expanded: bool  # neighbor tiles were pulled in for extra slack
    cache_hit: bool = False  # served by a precomputed tile configuration


class TiledLayout:
    """A placed-and-routed design partitioned into locked tiles."""

    def __init__(
        self,
        layout: Layout,
        tiles: list[Tile],
        options: TilingOptions,
        tile_cache: TileConfigCache | None = None,
    ) -> None:
        self.layout = layout
        self.tiles = tiles
        self.options = options
        self.tile_cache = tile_cache
        self.tile_of_block: dict[int, int] = {}
        for tile in tiles:
            for b in tile.blocks:
                self.tile_of_block[b] = tile.index
        self._neighbor_cache: dict[int, list[int]] | None = None

    # ------------------------------------------------------------------
    # construction (paper steps 4-8)
    # ------------------------------------------------------------------

    @classmethod
    def create(
        cls,
        packed: PackedDesign,
        device: Device,
        options: TilingOptions,
        seed: int = 1,
        preset: EffortPreset | None = None,
        meter: EffortMeter | None = None,
        initial_layout: Layout | None = None,
        tile_cache: TileConfigCache | None = None,
    ) -> "TiledLayout":
        """Tile a design: plan boundaries, re-place with slack, lock.

        ``initial_layout`` (the pre-error untiled implementation) seeds
        the block-to-tile assignment with its placement's locality; its
        routes are never read.  Without one, the untiled design is
        placed first (:func:`cached_full_place`, unrouted, as a tiled
        run's ``build_initial`` places it), mirroring the paper's flow
        where tiling happens after the original implementation.
        """
        preset = preset or EFFORT_PRESETS["normal"]
        meter = meter if meter is not None else EffortMeter()

        if initial_layout is None:
            initial_layout = cached_full_place(
                packed, device, seed=seed, preset=preset, meter=meter,
                cache=tile_cache,
            )

        rects = plan_tile_grid(packed.n_clbs, device, options)
        tiles = assign_blocks_to_tiles(
            packed, initial_layout.placement, rects
        )
        if options.refine_passes:
            refine_boundaries(packed, tiles, passes=options.refine_passes)

        # step 5: re-place-and-route with resource slack (tile regions);
        # the constraint set pins every block to its tile, so the
        # whole-design configuration cache key captures the tiling and a
        # repeat of the same precomputation replays it
        regions = {}
        for tile in tiles:
            for b in tile.blocks:
                regions[b] = tile.rect
        constraints = PlaceConstraints(regions=regions)
        layout = cached_full_place_and_route(
            packed, device, seed=seed, preset=preset, meter=meter,
            constraints=constraints, strict_routing=False,
            cache=tile_cache, context="tiling",
        )
        return cls(layout, tiles, options, tile_cache=tile_cache)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    @property
    def packed(self) -> PackedDesign:
        return self.layout.packed

    @property
    def device(self) -> Device:
        return self.layout.device

    def tile_of_instance(self, instance_name: str) -> int:
        block = self.packed.block_of_instance.get(instance_name)
        if block is None or block not in self.tile_of_block:
            raise TilingError(
                f"instance {instance_name!r} is not in any tile"
            )
        return self.tile_of_block[block]

    def neighbors_of(self, tile_index: int) -> list[int]:
        if self._neighbor_cache is None:
            self._neighbor_cache = {
                t.index: t.neighbors(self.tiles) for t in self.tiles
            }
        return self._neighbor_cache[tile_index]

    def stats(self) -> TileStats:
        return TileStats.measure(
            self.tiles,
            count_inter_tile_nets(self.packed, self.tile_of_block),
        )

    def total_slack(self) -> int:
        return sum(t.slack for t in self.tiles)

    # ------------------------------------------------------------------
    # Figure 3 model: affected tiles for a logic insertion
    # ------------------------------------------------------------------

    def affected_tiles_for_logic(
        self, n_new_clbs: int, start_tile: int
    ) -> list[int]:
        """Tiles cleared when ``n_new_clbs`` CLBs land in ``start_tile``.

        Breadth-first neighbor expansion until the pooled slack covers
        the new logic (paper §4.2: "if the affected tile does not have
        enough free resources, neighboring tiles can also be labeled
        affected").  Raises :class:`TilingError` if the whole array
        cannot absorb the logic.
        """
        if n_new_clbs < 0:
            raise TilingError("logic size cannot be negative")
        return self._expand_for_slack({start_tile}, n_new_clbs)

    # ------------------------------------------------------------------
    # Figure 4 model: test-point budget
    # ------------------------------------------------------------------

    def max_logic_for_test_points(self, n_points: int) -> int:
        """Largest per-point test logic supportable for ``n_points``.

        Test points are spread round-robin over tiles (the paper's
        clustered/random discussion brackets this); points sharing a
        tile split its slack.  The answer is the worst per-point budget,
        i.e. what every point is guaranteed to fit.
        """
        if n_points < 1:
            raise TilingError("need at least one test point")
        order = sorted(self.tiles, key=lambda t: -t.slack)
        n_tiles = len(order)
        budgets: list[int] = []
        per_tile_points = [0] * n_tiles
        for p in range(n_points):
            per_tile_points[p % n_tiles] += 1
        for tile, points in zip(order, per_tile_points):
            if points:
                budgets.append(tile.slack // points)
        return min(budgets) if budgets else 0

    # ------------------------------------------------------------------
    # the debugging-change commit (paper steps 17-20)
    # ------------------------------------------------------------------

    def apply_changeset(
        self,
        description: str,
        seed: int = 1,
        preset: EffortPreset | None = None,
        anchor_instance: str | None = None,
    ) -> CommitReport:
        """Clear and re-place-and-route only the affected tiles.

        The commit absorbs every netlist edit since the last one from
        the netlist's edit log (:func:`absorb_changes`);
        ``description`` names the step in the report.

        1. back-annotate: changed/removed instances → blocks → tiles;
        2. pack any new instances into new blocks;
        3. expand to neighbor tiles while slack is insufficient;
        4. unlock, clear and re-place the affected tiles' blocks (new
           blocks included) inside the tile rectangles, with every other
           tile's placement and routing locked;
        5. reroute confined nets inside the tiles and reconnect
           interface nets at their locked boundary crossings;
        6. re-establish tile membership and re-lock.

        Before running step 4-5 from scratch, the commit is looked up in
        the tile-configuration cache: when an identical reconfiguration
        (same movable blocks and net terminals, same locked interface
        signature, same seed/preset) was committed before, its
        precomputed configuration is verified and replayed — the paper's
        spare-configuration mechanism — and the P&R is skipped entirely.
        """
        preset = preset or EFFORT_PRESETS["normal"]
        meter = EffortMeter()
        packed = self.packed

        changed_blocks, new_blocks, extra = absorb_changes(
            packed, self.layout
        )
        new_clbs = {
            b for b in new_blocks if packed.blocks[b].is_clb
        }

        # seed tiles from the change location
        seed_tiles = {
            self.tile_of_block[b]
            for b in changed_blocks
            if b in self.tile_of_block
        }
        if not seed_tiles:
            if anchor_instance is not None:
                seed_tiles = {self.tile_of_instance(anchor_instance)}
            elif self.tiles:
                seed_tiles = {
                    max(self.tiles, key=lambda t: t.slack).index
                }
        if not seed_tiles:
            raise TilingError("cannot anchor the change to any tile")

        affected = self._expand_for_slack(seed_tiles, len(new_clbs))
        expanded = len(affected) > len(seed_tiles)

        movable = set(new_clbs)
        for t in affected:
            movable |= {
                b for b in self.tiles[t].blocks if packed.blocks[b].is_clb
            }
        regions = [self.tiles[t].rect for t in affected]

        # --- precomputed-configuration fast path -------------------------
        new_iobs = {b for b in new_blocks if not packed.blocks[b].is_clb}
        affected_ids = sorted(
            {net.index for net in packed.nets_touching_blocks(movable)}
            | set(extra)
        )
        key = None
        if self.tile_cache is not None:
            key = self._commit_key(
                movable, regions, affected_ids, seed, preset
            )

        def fresh() -> Layout:
            replace_region(
                self.layout,
                movable,
                regions,
                seed=seed,
                preset=preset,
                meter=meter,
                confine_routing=True,
                extra_nets=extra,
            )
            return self.layout

        _, cache_hit = replay_or_compute(
            self.tile_cache, key, self.layout, movable, new_iobs,
            affected_ids, regions, meter, fresh,
        )

        self._rebuild_membership(affected, movable)
        return CommitReport(
            description=description,
            affected_tiles=sorted(affected),
            effort=meter,
            expanded=expanded,
            cache_hit=cache_hit,
        )

    def _commit_key(
        self,
        movable: set[int],
        regions: list[Rect],
        affected_ids: list[int],
        seed: int,
        preset: EffortPreset,
    ) -> str:
        """Digest of everything the commit's *result* is keyed on.

        Covers design/device/effort/seed, the tile rectangles, the kind
        and name of every movable block, and the locked interface of
        every net that will be rerouted (terminal sites and outside route
        fragments).  A net's outside fragment is hashed as fabric edge
        ids, which name edges one to one: the count, then the sorted ids
        of the route edges with an endpoint outside the regions, as
        machine 64-bit integers.  Connectivity only: block logic
        content (LUT tables, pin order) never steers placement or
        routing, so it stays out of the key and a logic-only change
        replays.  Deliberately *not*
        covered: transient congestion context — channel usage and
        negotiation history of unaffected nets.  A hit therefore replays
        a previously computed *legal* configuration for these blocks and
        this interface (the paper's precomputed spare configuration), not
        necessarily the byte-identical result a fresh P&R would produce
        under the current congestion; apply-time verification enforces
        terminal and capacity legality before anything is touched.
        """
        packed = self.packed
        device = self.device
        placement = self.layout.placement
        h = hashlib.sha256()
        h.update(
            f"commit|{pnr_key_header(packed, device, preset, seed)}\n".encode()
        )
        rects = sorted((r.x0, r.y0, r.x1, r.y1) for r in regions)
        h.update(repr(rects).encode())
        for b in sorted(movable):
            block = packed.blocks[b]
            h.update(f"{block.kind}:{block.name}\n".encode())

        pos = placement.pos

        def terminal_sig(b: int) -> str:
            if b in movable:
                return f"M:{packed.blocks[b].name}"
            site = pos.get(b)
            if site is None:
                return f"N:{packed.blocks[b].name}"
            return f"L:{site}"

        # region-inclusion mask over fabric cell ids (cheap edge tests)
        fab = self.layout.state.fabric
        combined = fab.cells_in(regions)

        routes = self.layout.routes
        for idx in affected_ids:
            net = packed.nets[idx]
            h.update(
                f"{net.name}|{terminal_sig(net.driver)}|".encode()
            )
            h.update(
                ";".join(terminal_sig(s) for s in net.sinks).encode()
            )
            tree = routes.get(idx)
            if tree is not None:
                outside = sorted(fab.outside_eids(tree.eids, combined))
                h.update(array("q", [len(outside), *outside]).tobytes())
            h.update(b"\n")
        return h.hexdigest()

    def _expand_for_slack(
        self, seed_tiles: set[int], n_new_clbs: int
    ) -> list[int]:
        """Neighbor expansion until the affected set can host the logic.

        The seed tiles, then their neighbors breadth-first in index
        order, until the pooled slack covers ``n_new_clbs`` — the one
        walk behind both commits and the Figure 3 model.
        """
        chosen = sorted(seed_tiles)
        seen = set(chosen)
        slack = sum(self.tiles[idx].slack for idx in chosen)
        frontier: deque[int] = deque(chosen)
        while frontier and slack < n_new_clbs:
            idx = frontier.popleft()
            for nb in sorted(self.neighbors_of(idx)):
                if nb in seen:
                    continue
                seen.add(nb)
                chosen.append(nb)
                frontier.append(nb)
                slack += self.tiles[nb].slack
                if slack >= n_new_clbs:
                    break
        if slack < n_new_clbs:
            raise TilingError(
                f"new logic ({n_new_clbs} CLBs) exceeds reachable slack"
            )
        return chosen

    def _rebuild_membership(
        self, affected: list[int], movable: set[int]
    ) -> None:
        """Re-adopt moved blocks into tiles by their final site."""
        affected_set = set(affected)
        for t in affected_set:
            self.tiles[t].blocks -= movable
        for b in movable:
            site = self.layout.placement.site_of(b)
            for t in affected_set:
                if self.tiles[t].rect.contains(*site):
                    self.tiles[t].blocks.add(b)
                    self.tile_of_block[b] = t
                    break
            else:
                raise TilingError(
                    f"block {b} landed outside the affected tiles"
                )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TiledLayout({self.packed.netlist.name!r}, "
            f"{len(self.tiles)} tiles, slack={self.total_slack()})"
        )

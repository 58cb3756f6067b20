"""Tiling: geometry planning, assignment, refinement, Tile accounting."""

from collections import deque

import pytest

from repro.arch import custom_device, pick_device
from repro.errors import TilingError
from repro.geometry import Rect
from repro.pnr import EFFORT_PRESETS, full_place_and_route
from repro.tiling import (
    Tile,
    TilingOptions,
    assign_blocks_to_tiles,
    plan_tile_grid,
    refine_boundaries,
)
from repro.tiling.partition import count_inter_tile_nets
from tests.conftest import fresh_packed_design


class TestOptions:
    def test_exactly_one_granularity(self):
        with pytest.raises(TilingError):
            TilingOptions().resolve_n_tiles(100)
        with pytest.raises(TilingError):
            TilingOptions(n_tiles=4, tile_clbs=10).resolve_n_tiles(100)

    def test_resolution_modes(self):
        assert TilingOptions(n_tiles=8).resolve_n_tiles(100) == 8
        assert TilingOptions(tile_clbs=25).resolve_n_tiles(100) == 4
        assert TilingOptions(tile_fraction=0.25).resolve_n_tiles(100) == 4


class TestPlanGrid:
    def test_covers_needed_area(self):
        device = custom_device(20, 20)
        options = TilingOptions(n_tiles=10, area_overhead=0.2)
        rects = plan_tile_grid(100, device, options)
        assert len(rects) == 10
        total = sum(r.area for r in rects)
        assert total >= 120  # 100 * 1.2

    def test_overhead_near_request(self):
        device = custom_device(30, 30)
        options = TilingOptions(n_tiles=10, area_overhead=0.2)
        rects = plan_tile_grid(200, device, options)
        total = sum(r.area for r in rects)
        overhead = total / 200 - 1
        assert 0.18 <= overhead <= 0.35

    def test_no_overlap(self):
        device = custom_device(20, 20)
        rects = plan_tile_grid(100, device, TilingOptions(n_tiles=9))
        for i, a in enumerate(rects):
            for b in rects[i + 1:]:
                assert not a.overlaps(b)

    def test_prime_tile_count(self):
        device = custom_device(20, 20)
        rects = plan_tile_grid(120, device, TilingOptions(n_tiles=7))
        assert len(rects) == 7

    def test_min_side_enforced(self):
        device = custom_device(10, 10)
        with pytest.raises(TilingError):
            plan_tile_grid(60, device, TilingOptions(n_tiles=40))

    def test_device_too_small(self):
        device = custom_device(5, 5)
        with pytest.raises(TilingError):
            plan_tile_grid(100, device, TilingOptions(n_tiles=4))

    def test_stays_on_device(self):
        device = custom_device(12, 12)
        rects = plan_tile_grid(100, device, TilingOptions(n_tiles=6))
        for r in rects:
            assert device.clb_region.contains_rect(r)


class TestTile:
    def test_slack_accounting(self):
        t = Tile(0, Rect(0, 0, 3, 3), {1, 2, 3})
        assert t.capacity == 16
        assert t.used == 3
        assert t.slack == 13

    def test_neighbors(self):
        tiles = [
            Tile(0, Rect(0, 0, 1, 1), set()),
            Tile(1, Rect(2, 0, 3, 1), set()),
            Tile(2, Rect(5, 0, 6, 1), set()),
        ]
        assert tiles[0].neighbors(tiles) == [1]
        assert tiles[2].neighbors(tiles) == []


@pytest.fixture(scope="module")
def assigned_ctx():
    packed = fresh_packed_design(width=10)
    device = pick_device(packed.n_clbs, area_overhead=0.6,
                         min_io=len(packed.io_blocks()))
    layout = full_place_and_route(
        packed, device, seed=3, preset=EFFORT_PRESETS["fast"],
    )
    rects = plan_tile_grid(
        packed.n_clbs, device, TilingOptions(n_tiles=4, area_overhead=0.3)
    )
    tiles = assign_blocks_to_tiles(packed, layout.placement, rects)
    return packed, device, layout, tiles


class TestAssignment:
    def test_every_block_assigned_once(self, assigned_ctx):
        packed, device, layout, tiles = assigned_ctx
        seen = [b for t in tiles for b in t.blocks]
        assert len(seen) == len(set(seen)) == packed.n_clbs

    def test_no_tile_overflows(self, assigned_ctx):
        packed, device, layout, tiles = assigned_ctx
        for t in tiles:
            assert t.used <= t.capacity

    def test_refinement_does_not_increase_cut(self, assigned_ctx):
        packed, device, layout, tiles = assigned_ctx
        fresh = [Tile(t.index, t.rect, set(t.blocks)) for t in tiles]

        def cut(tile_list):
            tile_of = {}
            for t in tile_list:
                for b in t.blocks:
                    tile_of[b] = t.index
            return count_inter_tile_nets(packed, tile_of)

        before = cut(fresh)
        refine_boundaries(packed, fresh, passes=2)
        after = cut(fresh)
        assert after <= before

    def test_refinement_preserves_block_count(self, assigned_ctx):
        packed, device, layout, tiles = assigned_ctx
        fresh = [Tile(t.index, t.rect, set(t.blocks)) for t in tiles]
        refine_boundaries(packed, fresh, passes=2)
        seen = [b for t in fresh for b in t.blocks]
        assert len(seen) == len(set(seen)) == packed.n_clbs


def _reference_move_gain(nets, block, src, dst, tile_of):
    """Cut-count change if ``block`` moves src→dst, net by net."""
    gain = 0
    for net in nets:
        others = [
            tile_of.get(b)
            for b in (net.driver, *net.sinks)
            if b != block and tile_of.get(b) is not None
        ]
        if not others:
            continue
        before = len(set(others + [src])) > 1
        after = len(set(others + [dst])) > 1
        gain += int(before) - int(after)
    return gain


def _reference_refine(packed, tiles, passes=2, max_fill=0.95):
    """``refine_boundaries`` scoring every destination with its own
    per-net recount (:func:`_reference_move_gain`)."""
    tile_of = {b: t.index for t in tiles for b in t.blocks}
    adjacency = {t.index: set(t.neighbors(tiles)) for t in tiles}
    limit = {t.index: max(1, int(t.capacity * max_fill)) for t in tiles}
    nets_of_block = {}
    for net in packed.nets.values():
        for b in (net.driver, *net.sinks):
            nets_of_block.setdefault(b, []).append(net)
    moves = 0
    for _ in range(passes):
        improved = False
        for tile in tiles:
            for block in sorted(tile.blocks):
                best_gain, best_dest = 0, None
                for dest_idx in adjacency[tile.index]:
                    if tiles[dest_idx].used >= limit[dest_idx]:
                        continue
                    gain = _reference_move_gain(
                        nets_of_block.get(block, ()), block, tile.index,
                        dest_idx, tile_of,
                    )
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


def test_refinement_matches_per_destination_recount():
    """The one-pass ``alone`` gains move exactly the blocks that
    recounting every net per destination moves, in the same order."""
    from repro.api.design import device_for
    from repro.generators import build_design
    from repro.pnr.placer import place_design

    total_moves = 0
    for name in ("9sym", "s9234", "des"):
        packed = build_design(name).packed
        device = device_for(packed)
        for seed in (1, 2):
            placement = place_design(
                packed, device, seed=seed, preset=EFFORT_PRESETS["fast"]
            )
            for n_tiles in (4, 10):
                rects = plan_tile_grid(
                    packed.n_clbs, device, TilingOptions(n_tiles=n_tiles)
                )
                tiles = assign_blocks_to_tiles(packed, placement, rects)
                want = [Tile(t.index, t.rect, set(t.blocks)) for t in tiles]
                moves = refine_boundaries(packed, tiles, passes=2)
                assert moves == _reference_refine(packed, want, passes=2)
                assert [t.blocks for t in tiles] == [t.blocks for t in want]
                total_moves += moves
    assert total_moves > 0


def _reference_affected_tiles(tiled, n_new_clbs, start_tile):
    """The Figure 3 walk as it stood before it shared the commit path's
    slack expansion: pop-time dedup, a slack check after every tile."""
    if n_new_clbs < 0:
        raise TilingError("logic size cannot be negative")
    chosen, seen = [], set()
    queue = deque([start_tile])
    slack = 0
    while queue:
        idx = queue.popleft()
        if idx in seen:
            continue
        seen.add(idx)
        chosen.append(idx)
        slack += tiled.tiles[idx].slack
        if slack >= n_new_clbs:
            return chosen
        for nb in sorted(tiled.neighbors_of(idx)):
            if nb not in seen:
                queue.append(nb)
    if slack >= n_new_clbs:
        return chosen
    raise TilingError(f"{n_new_clbs} CLBs exceed the total slack {slack}")


def test_slack_walk_matches_reference_walk():
    """``affected_tiles_for_logic`` (the commit path's slack walk from
    one tile) visits, stops and fails exactly like the reference walk,
    from every start tile at every size up to past the total slack."""
    from repro.api.design import device_for
    from repro.generators import build_design
    from repro.tiling import TiledLayout

    def outcome(walk, *args):
        try:
            return walk(*args)
        except TilingError:
            return "TilingError"

    saturated = 0
    for name in ("9sym", "styr", "s9234"):
        packed = build_design(name).packed
        tiled = TiledLayout.create(
            packed, device_for(packed), TilingOptions(n_tiles=10),
            preset=EFFORT_PRESETS["fast"],
        )
        for start in range(len(tiled.tiles)):
            for size in range(tiled.total_slack() + 3):
                want = outcome(_reference_affected_tiles, tiled, size, start)
                got = outcome(tiled.affected_tiles_for_logic, size, start)
                assert got == want, (name, start, size)
                saturated += want == "TilingError"
        with pytest.raises(TilingError):
            tiled.affected_tiles_for_logic(-1, 0)
    assert saturated > 0


# ----------------------------------------------------------------------
# commit cache key
# ----------------------------------------------------------------------

def _reference_outside_edges(fab, regions, edges):
    """The edge-tuple filter the commit key hashed before edge ids: the
    sorted route edges with an endpoint outside ``regions``."""
    combined = fab.cells_in(regions)
    return sorted(
        (a, b) for a, b in edges
        if not (combined[fab.cell_id(a)] and combined[fab.cell_id(b)])
    )


def _commit_args(tiled, t):
    """A logic-only commit of tile ``t``: its CLBs, its rectangle and
    the nets touching them, as ``apply_changeset`` derives them."""
    packed = tiled.packed
    movable = {b for b in tiled.tiles[t].blocks if packed.blocks[b].is_clb}
    affected = sorted(n.index for n in packed.nets_touching_blocks(movable))
    return movable, [tiled.tiles[t].rect], affected


def _replace_edge(tiled, idx, old_eid, new_eid):
    """Swap one edge id of net ``idx``'s route."""
    tree = tiled.layout.routes[idx].copy()
    tree.eids = tuple(new_eid if e == old_eid else e for e in tree.eids)
    tiled.layout.routes[idx] = tree


def test_commit_key_covers_interface_only():
    """The commit key: equal for identical builds; changed by one
    outside route edge or one outside terminal site of an affected net;
    unchanged by an inside edge, a LUT table or an unaffected net's
    congestion."""
    from repro.netlist.cells import CellKind
    from tests.test_tile_cache import build_tiled

    fast = EFFORT_PRESETS["fast"]
    mapped, packed, tiled = build_tiled(None)
    _, _, twin = build_tiled(None)
    layout = tiled.layout
    fab = layout.state.fabric

    def key(t):
        return tiled._commit_key(*_commit_args(tiled, t), 4, fast)

    for t in range(len(tiled.tiles)):
        assert key(t) == twin._commit_key(*_commit_args(twin, t), 4, fast)

    # a tile with an affected net routed both inside and outside it
    for t in range(len(tiled.tiles)):
        movable, regions, affected = _commit_args(tiled, t)
        mask = fab.cells_in(regions)
        mixed = [
            idx for idx in affected if idx in layout.routes
            and 0 < len(fab.outside_eids(layout.routes[idx].eids, mask))
            < len(layout.routes[idx].eids)
        ]
        if mixed:
            break
    idx = mixed[0]
    base = key(t)
    tree = layout.routes[idx]
    outside = fab.outside_eids(tree.eids, mask)
    inside = [e for e in tree.eids if e not in outside]

    # one outside edge moved onto another net's outside edge
    spare = next(
        e for other, r in layout.routes.items() if other != idx
        for e in fab.outside_eids(r.eids, mask) if e not in tree.eids
    )
    _replace_edge(tiled, idx, outside[0], spare)
    assert key(t) != base
    layout.routes[idx] = tree

    # one inside edge moved onto another inside edge
    spare = next(
        eid for c in range(fab.n_cells) if mask[c]
        for nc, eid, _, _ in fab.nbr[c]
        if mask[nc] and eid not in tree.eids
    )
    _replace_edge(tiled, idx, inside[0], spare)
    assert key(t) == base
    layout.routes[idx] = tree

    # one outside terminal moved to a free site outside the tile
    placement = layout.placement
    terminal = next(
        b for n in affected
        for b in (packed.nets[n].driver, *packed.nets[n].sinks)
        if b not in movable and packed.blocks[b].is_clb
    )
    home = placement.pos[terminal]
    free = next(
        (x, y) for x in range(tiled.device.nx) for y in range(tiled.device.ny)
        if tiled.device.is_clb_site(x, y) and (x, y) not in placement.clb_at
        and not mask[fab.cell_id((x, y))]
    )
    placement.move_clb(terminal, free)
    assert key(t) != base
    placement.move_clb(terminal, home)
    assert key(t) == base

    # a LUT table inside the tile
    lut = next(
        i for i in mapped.instances()
        if i.kind is CellKind.LUT and i.inputs
        and packed.block_of_instance.get(i.name) in movable
    )
    lut.params = {"table": lut.params["table"] ^ 1}
    assert key(t) == base

    # usage and history of an unaffected net's channels
    unaffected = next(r for n, r in layout.routes.items() if n not in affected)
    layout.state.add(unaffected)
    layout.state.bump_history(3.0)
    for eid in unaffected.eids:
        layout.state._history[eid] += 1.0
    assert key(t) == base


def test_commit_key_outside_filter_matches_tuple_filter(monkeypatch):
    """On every affected net of a des debug run's commits, the key's
    edge-id outside filter selects exactly the edges the edge-tuple
    filter selects."""
    from repro.api import RunSpec, run_spec
    from repro.tiling import TiledLayout

    real_key = TiledLayout._commit_key
    outside_sizes = []

    def checked_key(self, movable, regions, affected_ids, seed, preset):
        fab = self.layout.state.fabric
        mask = fab.cells_in(regions)
        for idx in affected_ids:
            tree = self.layout.routes.get(idx)
            if tree is None:
                continue
            got = sorted(
                fab.edge_tuple(e) for e in fab.outside_eids(tree.eids, mask)
            )
            edges = map(fab.edge_tuple, tree.eids)
            assert got == _reference_outside_edges(fab, regions, edges)
            outside_sizes.append(len(got))
        return real_key(self, movable, regions, affected_ids, seed, preset)

    monkeypatch.setattr(TiledLayout, "_commit_key", checked_key)
    result = run_spec(RunSpec(
        design="des", error_seed=1, preset="fast", cache="private",
    ))
    assert result.n_commits > 1
    assert len(outside_sizes) > 100
    assert 0 in outside_sizes and max(outside_sizes) > 0


@pytest.mark.parametrize("design", ["9sym", "s9234", "des", "mips"])
def test_only_route_reading_strategies_route_the_untiled_design(design):
    """``tiled`` places the untiled design and routes nothing (its tiling
    reads only the placement), yet its tiled layout is fully routed
    within channel capacity; ``incremental``, which commits against the
    untiled routes, still gets them all."""
    from repro.api import RunSpec
    from repro.api.pipeline import RunContext
    from repro.pnr import layout_legality_errors

    def strategy(name):
        spec = RunSpec(design=design, preset="fast", strategy=name)
        return RunContext.from_spec(spec, tile_cache=None).strategy

    tiled = strategy("tiled")
    untiled = tiled.build_initial()
    untiled.placement.check_complete()
    assert untiled.routes == {} and untiled.state.usage == {}
    assert layout_legality_errors(untiled) == []
    tiled.prepare_for_debug()
    assert set(tiled.layout.routes) == set(tiled.packed.nets)
    assert layout_legality_errors(tiled.layout, check_capacity=True) == []

    incremental = strategy("incremental")
    routed = incremental.build_initial()
    assert set(routed.routes) == set(incremental.packed.nets)
    assert layout_legality_errors(routed, check_capacity=True) == []

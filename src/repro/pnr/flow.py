"""Back-end flows: full P&R, region-confined re-P&R, incremental baseline.

Four entry points, all effort-metered:

* :func:`full_place_and_route` — place and route a packed design from
  scratch (the non-tiled baseline; also what Quick_ECO does to an
  affected *functional block*, which per paper §6 is the whole design in
  these experiments);
* :func:`full_place` — the placement half alone, with no routes: the
  original implementation of a ``tiled`` or ``sat`` run, whose tiling
  reads only the placement's locality.  A run's ``effort["initial"]``
  therefore meters placement only for those strategies, and placement
  plus routing for ``incremental`` and ``quick_eco``, which commit
  against the untiled routes;
* :func:`replace_region` — rip up and re-place/re-route only the blocks
  in a set of rectangles, keeping everything else locked.  With
  ``confine_routing`` the reroute preserves route fragments outside the
  region and reconnects them at the old boundary-crossing cells — the
  physical meaning of the paper's *locked tile interfaces*;
* :func:`incremental_update` — the incremental-P&R baseline: rip up a
  window around the change (growing it when more room is needed) and
  re-place/re-route globally without interface preservation.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch.device import Device
from repro.errors import PlacementError, RoutingError
from repro.geometry import Rect
from repro.pnr.effort import EffortMeter, EffortPreset, EFFORT_PRESETS
from repro.pnr.placement import PlaceConstraints, Placement
from repro.pnr.placer import place_design
from repro.pnr.router import (
    RouteTree,
    RoutingState,
    grow_steiner_tree,
    route_nets,
)
from repro.pnr.timing import DEFAULT_TIMING, TimingModel, critical_path
from repro.synth.pack import PackedDesign


@dataclass
class Layout:
    """A complete physical implementation of a packed design."""

    packed: PackedDesign
    device: Device
    placement: Placement
    routes: dict[int, RouteTree]
    state: RoutingState

    def wirelength(self) -> int:
        return sum(tree.wirelength for tree in self.routes.values())

    def critical_path(self, model: TimingModel = DEFAULT_TIMING) -> float:
        return critical_path(self.packed, self.placement, self.routes, model)

    def copy(self) -> "Layout":
        return Layout(
            self.packed,
            self.device,
            self.placement.copy(),
            {idx: tree.copy() for idx, tree in self.routes.items()},
            self.state.copy(),
        )


def full_place_and_route(
    packed: PackedDesign,
    device: Device,
    seed: int = 1,
    preset: EffortPreset | None = None,
    meter: EffortMeter | None = None,
    constraints: PlaceConstraints | None = None,
    strict_routing: bool = True,
) -> Layout:
    """Place and route from scratch; one metered tool invocation."""
    preset = preset or EFFORT_PRESETS["normal"]
    meter = meter if meter is not None else EffortMeter()
    meter.begin_invocation()
    try:
        placement = place_design(
            packed,
            device,
            seed=seed,
            preset=preset,
            meter=meter,
            constraints=constraints,
        )
        state = RoutingState(device)
        routes = route_nets(
            packed,
            device,
            placement,
            state=state,
            preset=preset,
            meter=meter,
            strict=strict_routing,
        )
    finally:
        meter.end_invocation()
    return Layout(packed, device, placement, routes, state)


def full_place(
    packed: PackedDesign,
    device: Device,
    seed: int = 1,
    preset: EffortPreset | None = None,
    meter: EffortMeter | None = None,
) -> Layout:
    """Place from scratch and route nothing; one metered tool invocation.

    The placement equals :func:`full_place_and_route`'s for the same
    arguments; the layout holds no routes and an empty routing state.
    """
    preset = preset or EFFORT_PRESETS["normal"]
    meter = meter if meter is not None else EffortMeter()
    meter.begin_invocation()
    try:
        placement = place_design(
            packed, device, seed=seed, preset=preset, meter=meter,
        )
    finally:
        meter.end_invocation()
    return Layout(packed, device, placement, {}, RoutingState(device))


# ----------------------------------------------------------------------
# region-confined re-place-and-route (the tiling primitive)
# ----------------------------------------------------------------------

def replace_region(
    layout: Layout,
    movable_blocks: set[int],
    regions: list[Rect],
    seed: int = 1,
    preset: EffortPreset | None = None,
    meter: EffortMeter | None = None,
    confine_routing: bool = True,
    extra_nets: list[int] | None = None,
) -> None:
    """Re-place ``movable_blocks`` inside ``regions`` and reroute their nets.

    Mutates ``layout`` in place.  Blocks outside the region set never
    move; with ``confine_routing`` their route fragments outside the
    region are byte-preserved and reconnected at the old boundary
    crossings (locked interfaces).  ``extra_nets`` forces a reroute of
    additional nets (e.g. brand-new nets of inserted test logic).
    """
    preset = preset or EFFORT_PRESETS["normal"]
    meter = meter if meter is not None else EffortMeter()
    packed, device = layout.packed, layout.device
    meter.begin_invocation()
    try:
        free_sites = _collect_sites(layout, regions)
        union_region = _bounding_rect(regions)

        # rip movable blocks out of the placement
        for block in movable_blocks:
            layout.placement.remove(block)

        region_map = {b: union_region for b in movable_blocks}
        constraints = PlaceConstraints(
            regions=region_map, free_sites=free_sites
        )
        layout.placement = place_design(
            packed,
            device,
            seed=seed,
            preset=preset,
            meter=meter,
            initial=layout.placement,
            constraints=constraints,
            movable=movable_blocks,
        )

        affected = {
            net.index
            for net in packed.nets_touching_blocks(movable_blocks)
        }
        if extra_nets:
            affected.update(extra_nets)
        _reroute_affected(
            layout, sorted(affected), regions, union_region,
            confine_routing, preset, meter,
        )
    finally:
        meter.end_invocation()


def _collect_sites(layout: Layout, regions: list[Rect]) -> set[tuple[int, int]]:
    sites: set[tuple[int, int]] = set()
    for region in regions:
        for site in region.sites():
            if layout.device.is_clb_site(*site):
                sites.add(site)
    return sites


def _bounding_rect(regions: list[Rect]) -> Rect:
    if not regions:
        raise PlacementError("replace_region needs at least one region")
    rect = regions[0]
    for region in regions[1:]:
        rect = rect.union(region)
    return rect


def _reroute_affected(
    layout: Layout,
    net_indices: list[int],
    regions: list[Rect],
    union_region: Rect,
    confine_routing: bool,
    preset: EffortPreset,
    meter: EffortMeter,
) -> None:
    packed, device = layout.packed, layout.device
    fab = layout.state.fabric
    mask = fab.cells_in(regions)

    confined: list[int] = []
    for net_idx in net_indices:
        net = packed.nets[net_idx]
        terminals = [layout.placement.site_of(b) for b in (net.driver, *net.sinks)]
        old = layout.routes.pop(net_idx, None)
        if old is not None:
            layout.state.remove(old)

        if all(mask[fab.cell_id(t)] for t in terminals):
            confined.append(net_idx)
            continue

        if confine_routing and old is not None:
            tree = _reroute_with_locked_interface(
                layout, net_idx, old, mask, union_region, meter
            )
        else:
            tree = None
        if tree is None:
            # new inter-region net (or confinement disabled): global route
            fresh = route_nets(
                packed, device, layout.placement, [net_idx],
                state=layout.state, preset=preset, meter=meter, strict=False,
            )
            layout.routes.update(fresh)
        else:
            layout.routes[net_idx] = tree
            layout.state.add(tree)

    if confined:
        fresh = route_nets(
            packed, device, layout.placement, confined,
            state=layout.state, region=union_region,
            preset=preset, meter=meter, strict=False,
        )
        layout.routes.update(fresh)


def _reroute_with_locked_interface(
    layout: Layout,
    net_idx: int,
    old: RouteTree,
    mask: bytearray,
    union_region: Rect,
    meter: EffortMeter,
) -> RouteTree | None:
    """Keep the route outside the region; rebuild only the inside part.

    ``mask`` marks the fabric cells inside the regions.  Returns None
    when the old route never touched the region (shouldn't happen for
    affected nets) or reconnection fails, in which case the caller falls
    back to a global reroute.
    """
    packed = layout.packed
    net = packed.nets[net_idx]
    fab = layout.state.fabric
    h = fab.h

    def inside(cell: tuple[int, int]) -> bool:
        return mask[(cell[0] + 1) * h + cell[1] + 1]

    # a brand-new terminal outside the region (e.g. a fresh observation
    # pin on the IOB ring) cannot hang off the kept fragment — reroute
    # the whole net instead
    driver_site = layout.placement.site_of(net.driver)
    for site in (driver_site, *map(layout.placement.site_of, net.sinks)):
        if site not in old.cells and not inside(site):
            return None

    kept = fab.outside_eids(old.eids, mask)
    if not kept:
        return None
    # boundary anchors: cells of kept edges that sit inside the region,
    # plus outside fragment cells adjacent to the region.  The walk is
    # over a set of cell pairs, not over ``kept``: the anchors' set
    # order picks which of two equally distant anchors is reached first
    anchors: set[tuple[int, int]] = set()
    outside_cells: set[tuple[int, int]] = set()
    for a, b in {fab.edge_tuple(e) for e in kept}:
        for cell in (a, b):
            if inside(cell):
                anchors.add(cell)
            else:
                outside_cells.add(cell)

    inside_sinks = [
        layout.placement.site_of(s)
        for s in net.sinks
        if inside(layout.placement.site_of(s))
    ]
    if inside(driver_site):
        seeds = {driver_site}
        targets = list(anchors) + inside_sinks
    else:
        if anchors:
            seeds = set(anchors)
        else:
            # route never crossed: seed at the outside cell closest to region
            seeds = {min(outside_cells)}
        targets = inside_sinks + [a for a in anchors if a not in seeds]

    try:
        cells, hops, eids = grow_steiner_tree(
            layout.device, seeds, targets, layout.state,
            region=union_region, meter=meter,
        )
    except RoutingError:
        return None

    tree = RouteTree(net_idx)
    tree.cells = cells | outside_cells | anchors
    tree.eids = eids + tuple(kept)
    if len(set(tree.eids)) != len(tree.eids):
        # the new part ran along a kept edge outside the regions but
        # inside their bounding rectangle
        tree.eids = tuple(set(tree.eids))
    tree.sink_hops = dict(old.sink_hops)
    for s in net.sinks:
        site = layout.placement.site_of(s)
        if site in hops:
            tree.sink_hops[s] = hops[site]
    return tree


# ----------------------------------------------------------------------
# layout legality
# ----------------------------------------------------------------------

def layout_legality_errors(
    layout: Layout, check_capacity: bool = True
) -> list[str]:
    """Full legality audit; returns human-readable violations (empty = legal).

    Checks placement completeness, every routed net's terminals on its
    tree's cells, that each tree's edges join two of its cells and are
    listed once, channel-usage bookkeeping consistency against a
    recount by edge id, and (optionally) channel capacity.  An edge id
    always names two adjacent cells, so adjacency needs no check.
    Shared by the perf benchmark's ``routed_legal`` gate and the tests.
    """
    errors: list[str] = []
    try:
        layout.placement.check_complete()
    except PlacementError as exc:
        errors.append(str(exc))
    pos = layout.placement.pos
    state = layout.state
    edge_tuple = state.fabric.edge_tuple
    recount: dict[int, int] = {}
    for idx, tree in layout.routes.items():
        net = layout.packed.nets.get(idx)
        if net is None:
            errors.append(f"route for retired net index {idx}")
            continue
        if pos.get(net.driver) not in tree.cells:
            errors.append(f"net {net.name}: driver off its route tree")
        for sink in net.sinks:
            if pos.get(sink) not in tree.cells:
                errors.append(f"net {net.name}: sink {sink} disconnected")
            if sink not in tree.sink_hops:
                errors.append(f"net {net.name}: sink {sink} missing hops")
        for eid in tree.eids:
            a, b = edge_tuple(eid)
            if a not in tree.cells or b not in tree.cells:
                errors.append(f"net {net.name}: edge {a}-{b} off tree cells")
            recount[eid] = recount.get(eid, 0) + 1
        if len(set(tree.eids)) != len(tree.eids):
            errors.append(f"net {net.name}: an edge listed twice")
    if recount != {eid: state._usage[eid] for eid in state._used}:
        errors.append("channel-usage bookkeeping diverged from routes")
    if check_capacity:
        cap = layout.device.channel_width
        over = [e for e, u in recount.items() if u > cap]
        if over:
            errors.append(f"{len(over)} channel segments over capacity")
    return errors


# ----------------------------------------------------------------------
# region-configuration snapshot/replay (TileConfigCache backend)
# ----------------------------------------------------------------------

def capture_region_config(
    layout: Layout,
    movable_blocks: set[int],
    io_blocks: set[int],
    net_indices: list[int],
) -> tuple[dict, dict, dict, dict]:
    """Snapshot the physical outcome of a region commit for reuse.

    Returns ``(sites, io_slots, routes, over_allow)`` keyed by block/net
    *names* so the snapshot resolves against an identically built
    sibling design.  A route is ``(cells, hops, eids)``: its cells, its
    sorted ``(sink name, hops)`` pairs and its edge ids.  ``over_allow``
    records the capture-time occupancy of any over-capacity edge the
    routes touch — region re-routes run non-strict, so a replay is
    allowed to reproduce exactly the overuse the fresh path produced,
    and no more.
    """
    packed = layout.packed
    sites = {
        packed.blocks[b].name: layout.placement.site_of(b)
        for b in movable_blocks
    }
    io_slots = {
        packed.blocks[b].name: layout.placement.site_of(b)
        for b in io_blocks
    }
    routes: dict[str, tuple] = {}
    over_allow: dict[int, int] = {}
    state = layout.state
    usage = state._usage
    cap = layout.device.channel_width
    for idx in net_indices:
        tree = layout.routes.get(idx)
        if tree is None:
            continue
        net = packed.nets[idx]
        hops = tuple(
            sorted(
                (packed.blocks[b].name, h)
                for b, h in tree.sink_hops.items()
            )
        )
        eids = tree.eids
        routes[net.name] = (frozenset(tree.cells), hops, eids)
        for eid in eids:
            u = usage[eid]
            if u > cap:
                over_allow[eid] = u
    return sites, io_slots, routes, over_allow


def apply_region_config(
    layout: Layout,
    movable_blocks: set[int],
    io_blocks: set[int],
    net_indices: list[int],
    regions: list[Rect],
    sites: dict[str, tuple[int, int]],
    io_slots: dict[str, tuple[int, int]],
    routes: dict[str, tuple],
    over_allow: dict[int, int] | None = None,
) -> bool:
    """Verify, then install, a previously captured region configuration.

    Every check runs *before* any mutation, so a False return leaves the
    layout untouched and the caller falls back to a fresh re-place-and-
    route.  ``routes`` holds :func:`capture_region_config`'s
    ``(cells, hops, eids)`` triples; the installed trees take them as
    they are.  Checks: block/net name correspondence, site legality
    inside the regions, IOB slot capacity, terminal membership on the
    cached trees, and channel capacity after swapping the affected
    routes.
    """
    packed, device = layout.packed, layout.device
    placement = layout.placement
    state = layout.state

    # --- movable CLB sites -------------------------------------------
    name_of = {b: packed.blocks[b].name for b in movable_blocks}
    if set(sites) != set(name_of.values()):
        return False
    target_site: dict[int, tuple[int, int]] = {}
    seen_sites: set[tuple[int, int]] = set()
    in_regions = state.fabric.cells_in(regions)
    for b in movable_blocks:
        site = sites[name_of[b]]
        if not device.is_clb_site(*site):
            return False
        if not in_regions[state.fabric.cell_id(site)]:
            return False
        if site in seen_sites:
            return False
        seen_sites.add(site)
        occupant = placement.clb_at.get(site)
        if occupant is not None and occupant not in movable_blocks:
            return False
        target_site[b] = site

    # --- freshly placed IOBs -----------------------------------------
    io_name_of = {b: packed.blocks[b].name for b in io_blocks}
    if set(io_slots) != set(io_name_of.values()):
        return False
    io_target: dict[int, tuple[int, int]] = {}
    slot_fill: dict[tuple[int, int], int] = {}
    for b in io_blocks:
        slot = io_slots[io_name_of[b]]
        if not device.is_io_slot(*slot):
            return False
        if placement.is_placed(b):
            if placement.site_of(b) != slot:
                return False
            continue
        pads = placement.io_at.get(slot, [])
        extra = slot_fill.get(slot, 0)
        if len(pads) + extra >= device.io_per_slot:
            return False
        slot_fill[slot] = extra + 1
        io_target[b] = slot

    # --- nets: correspondence, terminals, capacity -------------------
    affected = sorted(set(net_indices))
    net_name_of: dict[int, str] = {}
    for idx in affected:
        net = packed.nets.get(idx)
        if net is None:
            return False
        net_name_of[idx] = net.name
    if set(routes) != set(net_name_of.values()):
        return False

    def site_of_terminal(b: int) -> tuple[int, int] | None:
        if b in target_site:
            return target_site[b]
        if b in io_target:
            return io_target[b]
        if placement.is_placed(b):
            return placement.site_of(b)
        return None

    sink_index_of: dict[int, dict[str, int]] = {}
    for idx in affected:
        net = packed.nets[idx]
        cells, hops, eids = routes[net_name_of[idx]]
        for b in (net.driver, *net.sinks):
            site = site_of_terminal(b)
            if site is None or site not in cells:
                return False
        by_name = {packed.blocks[s].name: s for s in net.sinks}
        sink_index_of[idx] = by_name
        for sink_name, _ in hops:
            if sink_name not in by_name:
                return False

    removed: dict[int, int] = {}
    for idx in affected:
        tree = layout.routes.get(idx)
        if tree is not None:
            for eid in tree.eids:
                removed[eid] = removed.get(eid, 0) + 1
    added: dict[int, int] = {}
    for cells, hops, eids in routes.values():
        for eid in eids:
            added[eid] = added.get(eid, 0) + 1
    cap = device.channel_width
    usage = state._usage
    allow = over_allow or {}
    for eid, k in added.items():
        if usage[eid] - removed.get(eid, 0) + k > max(cap, allow.get(eid, 0)):
            return False

    # --- all checks passed: install ----------------------------------
    for b in movable_blocks:
        placement.remove(b)
    for idx in affected:
        old = layout.routes.pop(idx, None)
        if old is not None:
            state.remove(old)
    for b, site in target_site.items():
        placement.place_clb(b, site)
    for b, slot in io_target.items():
        placement.place_io(b, slot)
    for idx in affected:
        cells, hops, eids = routes[net_name_of[idx]]
        by_name = sink_index_of[idx]
        tree = RouteTree(
            idx,
            cells,
            {by_name[name]: h for name, h in hops},
            eids,
        )
        layout.routes[idx] = tree
        state.add(tree)
    return True


# ----------------------------------------------------------------------
# incremental place-and-route baseline
# ----------------------------------------------------------------------

def incremental_update(
    layout: Layout,
    changed_blocks: set[int],
    new_blocks: set[int] | None = None,
    needed_free_sites: int | None = None,
    seed: int = 1,
    preset: EffortPreset | None = None,
    meter: EffortMeter | None = None,
    margin: int = 2,
    extra_nets: list[int] | None = None,
) -> Rect:
    """The incremental-P&R baseline: rip up a window around the change.

    The window starts at the bounding box of ``changed_blocks`` expanded
    by ``margin`` and grows until it holds enough empty sites for the
    (unplaced) ``new_blocks`` — modelling the paper's observation that
    incremental tools "re-place-and-route a much larger portion of the
    design to make sufficient room for the new logic".  Routing of
    affected nets is global (no interface locking).  Returns the final
    window.
    """
    preset = preset or EFFORT_PRESETS["normal"]
    meter = meter if meter is not None else EffortMeter()
    device = layout.device
    new_blocks = new_blocks or set()
    new_clbs = {
        b for b in new_blocks if layout.packed.blocks[b].is_clb
    }
    if needed_free_sites is None:
        needed_free_sites = len(new_clbs)

    sites = [
        layout.placement.site_of(b)
        for b in changed_blocks
        if layout.placement.is_placed(b)
    ]
    if not sites:
        raise PlacementError("incremental update needs at least one placed block")
    window = Rect(
        min(s[0] for s in sites),
        min(s[1] for s in sites),
        max(s[0] for s in sites),
        max(s[1] for s in sites),
    ).expanded(margin, clip=device.clb_region)

    while True:
        occupied = len(layout.placement.blocks_in_region(window))
        if window.area - occupied >= needed_free_sites:
            break
        if window == device.clb_region:
            break
        window = window.expanded(1, clip=device.clb_region)

    movable = (
        set(layout.placement.blocks_in_region(window))
        | set(changed_blocks)
        | new_clbs
    )
    replace_region(
        layout,
        movable,
        [window],
        seed=seed,
        preset=preset,
        meter=meter,
        confine_routing=False,
        extra_nets=extra_nets,
    )
    return window

"""Negotiated-congestion maze router with locking and region confinement.

The routing fabric is the cell grid (CLB array plus IOB ring); every pair
of adjacent routable cells is a channel segment with
``device.channel_width`` tracks.  A net's route is a Steiner tree of grid
cells grown sink-by-sink with A*.

PathFinder-style negotiation: nets are routed with a congestion cost
``1 + pres_fac * overuse + hist``; after each iteration nets crossing
over-capacity edges are ripped up and re-routed with a larger
``pres_fac`` until the solution is feasible.

Performance substrate: the grid is lowered once per device geometry
into a :class:`_Fabric` — flat cell ids, per-cell neighbor tables
whose entries carry the neighbor's cell id, the crossed edge's id and
the neighbor's coordinates, and region masks — and
:class:`RoutingState` keeps dense edge-indexed occupancy/history arrays
plus an *incrementally maintained* over-capacity set, so congestion
lookups inside A* are two list reads and convergence checks never scan
the edge universe.  A* records the
edge id it crossed into each cell, and a route records its edges only
as those ids (:attr:`RouteTree.eids`): occupancy updates, negotiation,
tile commits and stored configurations read the ids, and
:meth:`_Fabric.edge_tuple` names an id's two cells where a caller
needs them.
A* seeds its sources lazily: their heuristics come from per-device
distance tables, one stable sort orders them, and only the next
source waits in the heap, so a search that ends after a few dozen
expansions never queues or marks the rest of a large tree
(:func:`_astar` explains why pop order is unchanged).

Tiling hooks:

* **locked routes** — existing routes (from untouched tiles) stay in the
  usage map and are never ripped up, exactly like locked layout;
* **region confinement** — expansion can be limited to a rectangle, so a
  tile-confined re-route physically cannot disturb its surroundings;
* every node expansion is charged to the :class:`EffortMeter`.
"""

from __future__ import annotations

import heapq
import threading
from dataclasses import dataclass, field

from repro.arch.device import Device
from repro.errors import RoutingError
from repro.geometry import Rect, manhattan
from repro.pnr.effort import EffortMeter, EffortPreset, EFFORT_PRESETS
from repro.pnr.placement import Placement
from repro.synth.pack import PackedDesign

Edge = tuple[tuple[int, int], tuple[int, int]]

_INF = float("inf")


def _distance_table(n: int) -> list[list[int]]:
    """``table[t][c] == abs(c - t)`` for grid coordinates ``-1 .. n``.

    Both indices are coordinates: ``0 .. n`` index their own slot and
    the IOB ring's ``-1`` indexes the last one, as Python's negative
    indexing does.  Lists, not ``bytes``: the interpreter indexes a
    list of cached small ints fastest, and the largest family member's
    two tables hold about 60 KB.
    """
    coords = [*range(n + 1), -1]
    return [[abs(c - t) for c in coords] for t in coords]


class _Fabric:
    """Precomputed routing-graph tables for one device geometry.

    Cells (including the IOB ring) get flat ids
    ``(x + 1) * (ny + 2) + (y + 1)``; each undirected channel segment
    gets the id ``2 * cell_id(lower_endpoint) + axis`` (axis 0 = east,
    1 = north), so dense arrays can carry per-edge state.  ``nbr[c]``
    lists cell ``c``'s routable neighbors as ``(cell id, edge id, x,
    y)`` in the legacy expansion order (E, W, N, S), so routed trees are
    bit-identical with the pre-fabric router.  ``dist_x[tx]`` and
    ``dist_y[ty]`` are the per-axis Manhattan distances to a target (see
    :func:`_distance_table`): with the neighbor's coordinates in its
    entry, A*'s heuristic is two table reads.
    """

    def __init__(self, device: Device) -> None:
        self.nx = device.nx
        self.ny = device.ny
        self.h = device.ny + 2
        self.w = device.nx + 2
        n = self.w * self.h
        self.n_cells = n
        self.n_edges = 2 * n
        h = self.h
        self.xy: list[tuple[int, int]] = [(0, 0)] * n
        nbr: list[tuple[tuple[int, int, int, int], ...]] = [()] * n
        for x in range(-1, device.nx + 1):
            for y in range(-1, device.ny + 1):
                self.xy[(x + 1) * h + (y + 1)] = (x, y)
        for x in range(-1, device.nx + 1):
            for y in range(-1, device.ny + 1):
                if not device.is_routable(x, y):
                    continue
                cid = (x + 1) * h + (y + 1)
                flat: list[tuple[int, int, int, int]] = []
                # legacy neighbor order: E, W, N, S
                for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                    cx, cy = x + dx, y + dy
                    if not device.is_routable(cx, cy):
                        continue
                    ncid = (cx + 1) * h + (cy + 1)
                    if dx == 1:
                        eid = 2 * cid
                    elif dx == -1:
                        eid = 2 * ncid
                    elif dy == 1:
                        eid = 2 * cid + 1
                    else:
                        eid = 2 * ncid + 1
                    flat.append((ncid, eid, cx, cy))
                nbr[cid] = tuple(flat)
        self.nbr = nbr
        self.dist_x = _distance_table(device.nx)
        self.dist_y = _distance_table(device.ny)
        self._region_masks: dict[Rect, bytearray] = {}
        self._local = threading.local()

    def astar_scratch(self) -> "_AStarScratch":
        """This thread's A* scratch arrays.

        Per thread because campaign threads route on one shared fabric
        at once: shared parent pointers would splice their searches
        into a cycle that the path walk never leaves.
        """
        scratch = getattr(self._local, "scratch", None)
        if scratch is None:
            scratch = self._local.scratch = _AStarScratch(self.n_cells)
        return scratch

    def cell_id(self, cell: tuple[int, int]) -> int:
        return (cell[0] + 1) * self.h + (cell[1] + 1)

    def edge_id(self, a: tuple[int, int], b: tuple[int, int]) -> int:
        if b < a:
            a, b = b, a
        cid = (a[0] + 1) * self.h + (a[1] + 1)
        return 2 * cid + (1 if b[1] != a[1] else 0)

    def edge_tuple(self, eid: int) -> Edge:
        x, y = self.xy[eid >> 1]
        if eid & 1:
            return ((x, y), (x, y + 1))
        return ((x, y), (x + 1, y))

    def outside_eids(self, eids, mask: bytearray) -> list[int]:
        """The ids in ``eids`` of edges with an endpoint off ``mask``.

        An edge id's endpoints are cell ``eid >> 1`` and the cell one
        step east (``+h``) or north (``+1``) of it; order is kept.
        """
        h = self.h
        return [
            eid for eid in eids
            if not (mask[eid >> 1] and mask[(eid >> 1) + (1 if eid & 1 else h)])
        ]

    def region_mask(self, region: Rect) -> bytearray:
        """Cached 0/1 cell-inclusion mask for a confinement rectangle."""
        mask = self._region_masks.get(region)
        if mask is None:
            mask = self._region_masks[region] = self.cells_in([region])
        return mask

    def cells_in(self, regions: list[Rect]) -> bytearray:
        """A fresh 0/1 mask of the cells inside any of ``regions``."""
        mask = bytearray(self.n_cells)
        for region in regions:
            ones = b"\x01" * region.height
            for x in range(region.x0, region.x1 + 1):
                base = (x + 1) * self.h + region.y0 + 1
                mask[base:base + region.height] = ones
        return mask


class _AStarScratch:
    """Generation-stamped A* arrays (avoids per-call dict hashing).

    ``via[c]`` is the id of the edge the search crossed into cell ``c``
    (-1 for a source).  The edge id names both endpoints, so it doubles
    as the parent pointer: the path walk steps to its other endpoint.
    """

    __slots__ = ("best", "via", "stamp", "generation")

    def __init__(self, n_cells: int) -> None:
        self.best = [0.0] * n_cells
        self.via = [0] * n_cells
        self.stamp = [0] * n_cells
        self.generation = 0


_FABRICS: dict[tuple[int, int], _Fabric] = {}


def fabric_of(device: Device) -> _Fabric:
    """The shared fabric tables for a device geometry (built once)."""
    fab = _FABRICS.get((device.nx, device.ny))
    if fab is None:
        fab = _Fabric(device)
        _FABRICS[(device.nx, device.ny)] = fab
    return fab


@dataclass
class RouteTree:
    """One net's route: tree cells, per-sink path lengths, edge ids.

    ``eids`` lists the fabric ids of the tree's edges, each once, in no
    particular order; it is the route's only edge record (occupancy,
    legality, captured configurations and bitstream frames all read
    it), and :meth:`_Fabric.edge_tuple` turns an id back into its cell
    pair.  A hand-built tree sets it with :meth:`_Fabric.edge_id`.
    Nothing edits a built tree's ``eids`` in place.
    """

    net_index: int
    cells: set[tuple[int, int]] = field(default_factory=set)
    sink_hops: dict[int, int] = field(default_factory=dict)
    eids: tuple[int, ...] = ()

    @property
    def wirelength(self) -> int:
        return len(self.eids)

    def copy(self) -> "RouteTree":
        # eids stays valid: trees are replaced, never edited in place
        return RouteTree(
            self.net_index, set(self.cells), dict(self.sink_hops), self.eids,
        )


class RoutingState:
    """Shared channel-usage bookkeeping across all routed nets.

    Occupancy and history live in dense edge-indexed arrays; the set of
    over-capacity edges (``overused_ids``) is maintained incrementally
    by :meth:`add` / :meth:`remove`, so feasibility checks are O(1) and
    never scan the edge universe.  The mapping
    view :attr:`usage` is materialized on demand for inspection and
    tests — hot paths read the arrays directly.
    """

    def __init__(self, device: Device) -> None:
        self.device = device
        self.fabric = fabric_of(device)
        self.capacity = device.channel_width
        self._usage = [0] * self.fabric.n_edges
        self._history = [0.0] * self.fabric.n_edges
        self._used: set[int] = set()
        self._hist_ids: set[int] = set()
        self.overused_ids: set[int] = set()

    @property
    def usage(self) -> dict[Edge, int]:
        """Edge-tuple view of current occupancy (built on demand)."""
        tup = self.fabric.edge_tuple
        return {tup(eid): self._usage[eid] for eid in self._used}

    def add(self, route: RouteTree) -> None:
        usage = self._usage
        cap = self.capacity
        used_add = self._used.add
        over_add = self.overused_ids.add
        for eid in route.eids:
            u = usage[eid] + 1
            usage[eid] = u
            if u == 1:
                used_add(eid)
            if u == cap + 1:  # independent: both fire when cap == 0
                over_add(eid)

    def remove(self, route: RouteTree) -> None:
        usage = self._usage
        cap = self.capacity
        used_discard = self._used.discard
        over_discard = self.overused_ids.discard
        for eid in route.eids:
            u = usage[eid] - 1
            if u < 0:
                u = 0
            usage[eid] = u
            if u == 0:
                used_discard(eid)
            if u == cap:  # independent: both fire when cap == 0
                over_discard(eid)

    def bump_history(self, hist_fac: float = 0.4) -> None:
        history = self._history
        for eid in self.overused_ids:
            history[eid] += hist_fac
            self._hist_ids.add(eid)

    def copy(self) -> "RoutingState":
        clone = RoutingState.__new__(RoutingState)
        clone.device = self.device
        clone.fabric = self.fabric
        clone.capacity = self.capacity
        clone._usage = list(self._usage)
        clone._history = list(self._history)
        clone._used = set(self._used)
        clone._hist_ids = set(self._hist_ids)
        clone.overused_ids = set(self.overused_ids)
        return clone


def route_nets(
    packed: PackedDesign,
    device: Device,
    placement: Placement,
    net_indices: list[int] | None = None,
    state: RoutingState | None = None,
    region: Rect | None = None,
    preset: EffortPreset | None = None,
    meter: EffortMeter | None = None,
    strict: bool = True,
) -> dict[int, RouteTree]:
    """Route the given nets (default: all); returns net index → tree.

    ``state`` carries usage from locked routes; routes created here are
    added to it.  With ``region`` every new route is confined to the
    rectangle (terminals must lie inside).  With ``strict`` a residual
    over-capacity edge involving one of *our* nets raises
    :class:`RoutingError`; pre-existing locked congestion is the
    caller's responsibility.
    """
    preset = preset or EFFORT_PRESETS["normal"]
    meter = meter if meter is not None else EffortMeter()
    state = state if state is not None else RoutingState(device)
    if net_indices is None:
        net_indices = [n.index for n in packed.nets.values()]

    routes: dict[int, RouteTree] = {}
    pres_fac = 0.5
    todo = list(net_indices)
    for iteration in range(preset.router_iterations):
        for net_idx in todo:
            old = routes.pop(net_idx, None)
            if old is not None:
                state.remove(old)
            tree = _route_one(
                packed, device, placement, net_idx, state, region, pres_fac, meter
            )
            routes[net_idx] = tree
            state.add(tree)

        if not state.overused_ids:
            break
        state.bump_history()
        pres_fac *= 2.0
        over = state.overused_ids
        todo = [
            idx for idx, tree in routes.items()
            if not over.isdisjoint(tree.eids)
        ]
        if not todo:
            break

    if strict and state.overused_ids:
        # Single residual check: fail only when one of *our* nets sits
        # on an over-capacity edge (locked congestion is pre-existing).
        over = state.overused_ids
        involved = {
            eid for tree in routes.values() for eid in tree.eids
            if eid in over
        }
        if involved:
            raise RoutingError(
                f"{len(involved)} channel segments over capacity after "
                f"{preset.router_iterations} iterations"
            )
    return routes


def grow_steiner_tree(
    device: Device,
    seed_cells: set[tuple[int, int]],
    targets: list[tuple[int, int]],
    state: RoutingState,
    region: Rect | None = None,
    pres_fac: float = 2.0,
    meter: EffortMeter | None = None,
) -> tuple[
    set[tuple[int, int]], dict[tuple[int, int], int], tuple[int, ...],
]:
    """Grow a tree from ``seed_cells`` reaching every target cell.

    This is the primitive behind interface-preserving tile reroutes: the
    seeds are the locked boundary-crossing cells (or the driver site) and
    the targets are the sinks inside the tile plus the remaining
    crossings.  Returns (cells, hops per target, edge ids); each path
    leaves the tree at its first cell, so no id is listed twice.
    """
    meter = meter if meter is not None else EffortMeter()
    cells = set(seed_cells)
    eids: list[int] = []
    hops: dict[tuple[int, int], int] = {}
    for target in sorted(
        targets, key=lambda t: min((manhattan(t, s) for s in cells), default=0)
    ):
        if target in cells:
            hops[target] = 0
            continue
        found = _astar(cells, target, state, region, pres_fac, meter)
        if found is None:
            raise RoutingError(
                f"no path to {target}"
                + (f" within region {region}" if region else "")
            )
        path, path_eids = found
        hops[target] = len(path) - 1
        cells.update(path)
        eids += path_eids
    return cells, hops, tuple(eids)


def _route_one(
    packed: PackedDesign,
    device: Device,
    placement: Placement,
    net_idx: int,
    state: RoutingState,
    region: Rect | None,
    pres_fac: float,
    meter: EffortMeter,
) -> RouteTree:
    net = packed.nets[net_idx]
    source = placement.site_of(net.driver)
    sinks = [(placement.site_of(s), s) for s in net.sinks]
    tree = RouteTree(net_idx)
    tree.cells.add(source)
    eids: list[int] = []

    for target, sink_block in sorted(
        sinks, key=lambda item: (manhattan(source, item[0]), item[1])
    ):
        if target in tree.cells:
            tree.sink_hops[sink_block] = 0
            continue
        found = _astar(
            tree.cells, target, state, region, pres_fac, meter
        )
        if found is None:
            raise RoutingError(
                f"net {net.name}: no path from tree to {target}"
                + (f" within region {region}" if region else "")
            )
        path, path_eids = found
        tree.sink_hops[sink_block] = len(path) - 1
        tree.cells.update(path)
        eids += path_eids
    tree.eids = tuple(eids)
    return tree


def _astar(
    sources: set[tuple[int, int]],
    target: tuple[int, int],
    state: RoutingState,
    region: Rect | None,
    pres_fac: float,
    meter: EffortMeter,
):
    """Multi-source A* over the fabric cell ids.

    Returns ``(path, eids)`` — the cells from a source to ``target`` and
    the ids of the edges between consecutive cells — or None.  The
    device geometry comes entirely from ``state.fabric`` — neighbor
    tables, distance tables, region masks and the generation-stamped
    scratch arrays.  Heap entries are ``(f, counter, cell, g)``; they
    carry the cost ``g`` they were pushed with, so a stale entry (its
    cell since reached more cheaply) is a comparison away.

    Sources are seeded lazily, in the order of a heap holding all of
    them: ``(h, i)``, where ``i`` numbers the set's iteration order and
    is the source's counter.  Only the next source waits in the heap;
    when it pops it is marked (cost 0, no parent) and its successor is
    queued.  Expanded entries count on from ``len(sources)``, so a
    source still ties ahead of every one of them.  An expansion may
    reach a source that is not seeded yet and queue it with cost >= 1;
    that entry has ``f > h`` and so pops only after the source's own
    seed, when it is stale.  Pop order, paths, edge ids and the
    expansion count are therefore those of a search that queues every
    source up front (the router tests keep one as the reference).
    """
    srcs = list(sources)
    n_src = len(srcs)
    if not n_src:
        return None
    fab = state.fabric
    h = fab.h
    nbr_table = fab.nbr
    usage, history = state._usage, state._history
    cap = state.capacity
    tx, ty = target
    tid = (tx + 1) * h + (ty + 1)
    dist_x, dist_y = fab.dist_x[tx], fab.dist_y[ty]
    mask = fab.region_mask(region) if region is not None else None

    scratch = fab.astar_scratch()
    scratch.generation += 1
    gen = scratch.generation
    best = scratch.best
    via = scratch.via
    stamp = scratch.stamp

    src_h = [dist_x[x] + dist_y[y] for x, y in srcs]
    order = sorted(range(n_src), key=src_h.__getitem__)  # stable: (h, i)
    i = order[0]
    x, y = srcs[i]
    open_heap = [(src_h[i], i, (x + 1) * h + y + 1, 0.0)]
    seeded = 1
    counter = n_src

    push = heapq.heappush
    pop = heapq.heappop
    expansions = 0
    while open_heap:
        _, i, cid, g = pop(open_heap)
        if i < n_src:
            best[cid] = 0.0
            via[cid] = -1
            stamp[cid] = gen
            if seeded < n_src:
                i = order[seeded]
                seeded += 1
                x, y = srcs[i]
                push(open_heap, (src_h[i], i, (x + 1) * h + y + 1, 0.0))
        elif g > best[cid] + 1e-9:
            continue  # stale entry
        expansions += 1
        if cid == tid:
            meter.route_expansions += expansions
            xy = fab.xy
            path = [xy[cid]]
            eids = []
            eid = via[cid]
            while eid != -1:
                eids.append(eid)
                low = eid >> 1
                cid = low if low != cid else cid + (1 if eid & 1 else h)
                path.append(xy[cid])
                eid = via[cid]
            path.reverse()
            eids.reverse()
            return path, eids
        # history and pres_fac are never negative, so every step costs
        # at least 1.0; float addition is monotonic, so a neighbor
        # already reached at <= g + 1.0 (within the improvement margin)
        # cannot improve: skip pricing its edge
        reach = g + 1.0
        for ncid, eid, nx, ny in nbr_table[cid]:
            if mask is not None and not mask[ncid] and ncid != tid:
                continue
            if stamp[ncid] == gen:
                bound = best[ncid] - 1e-12
                if reach >= bound:
                    continue
            else:
                bound = _INF
            step = 1.0 + history[eid]
            over = usage[eid] + 1 - cap
            if over > 0:
                step += pres_fac * over
            cost = g + step
            if cost < bound:
                best[ncid] = cost
                via[ncid] = eid
                stamp[ncid] = gen
                push(
                    open_heap,
                    (
                        cost + dist_x[nx] + dist_y[ny],
                        counter, ncid, cost,
                    ),
                )
                counter += 1
    meter.route_expansions += expansions
    return None

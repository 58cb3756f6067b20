"""Maze router: connectivity, capacity negotiation, confinement."""

import pytest

from repro.arch import custom_device, pick_device
from repro.errors import RoutingError
from repro.geometry import Rect
from repro.pnr import EFFORT_PRESETS, EffortMeter, RoutingState, route_nets
from repro.pnr.placer import place_design
from repro.pnr.router import fabric_of, grow_steiner_tree
from tests.conftest import fresh_packed_design


def placed_design():
    packed = fresh_packed_design()
    device = pick_device(packed.n_clbs, area_overhead=0.5,
                         min_io=len(packed.io_blocks()))
    placement = place_design(packed, device, seed=1,
                             preset=EFFORT_PRESETS["fast"])
    return packed, device, placement


def test_all_nets_routed_and_connected():
    packed, device, placement = placed_design()
    routes = route_nets(packed, device, placement)
    assert set(routes) == set(packed.nets)
    for idx, tree in routes.items():
        net = packed.nets[idx]
        assert placement.site_of(net.driver) in tree.cells
        for sink in net.sinks:
            assert placement.site_of(sink) in tree.cells
            assert sink in tree.sink_hops


def test_routes_use_adjacent_cells_only():
    packed, device, placement = placed_design()
    routes = route_nets(packed, device, placement)
    edge_tuple = fabric_of(device).edge_tuple
    for tree in routes.values():
        for a, b in map(edge_tuple, tree.eids):
            assert abs(a[0] - b[0]) + abs(a[1] - b[1]) == 1


def test_capacity_respected_after_negotiation():
    packed, device, placement = placed_design()
    state = RoutingState(device)
    route_nets(packed, device, placement, state=state)
    cap = device.channel_width
    assert all(u <= cap for u in state.usage.values())


def test_narrow_channels_raise_when_strict():
    packed = fresh_packed_design(width=8)
    device = pick_device(packed.n_clbs, area_overhead=0.3,
                         min_io=len(packed.io_blocks()), channel_width=1)
    placement = place_design(packed, device, seed=1,
                             preset=EFFORT_PRESETS["fast"])
    with pytest.raises(RoutingError):
        route_nets(packed, device, placement, strict=True)


def test_region_confinement():
    packed, device, placement = placed_design()
    # pick a net fully inside some bounding box and reroute confined
    routes = route_nets(packed, device, placement)
    for idx, tree in routes.items():
        net = packed.nets[idx]
        sites = [placement.site_of(b) for b in (net.driver, *net.sinks)]
        if all(device.is_clb_site(*s) for s in sites):
            xs = [s[0] for s in sites]
            ys = [s[1] for s in sites]
            region = Rect(min(xs), min(ys), max(xs), max(ys))
            fresh = route_nets(
                packed, device, placement, [idx],
                state=RoutingState(device), region=region,
            )
            for cell in fresh[idx].cells:
                assert region.contains(*cell)
            return
    pytest.skip("no fully-internal net in this placement")


def test_expansions_metered():
    packed, device, placement = placed_design()
    meter = EffortMeter()
    route_nets(packed, device, placement, meter=meter)
    assert meter.route_expansions > 0


def test_grow_steiner_tree_reaches_targets():
    device = custom_device(8, 8)
    state = RoutingState(device)
    cells, hops, eids = grow_steiner_tree(
        device, {(0, 0)}, [(4, 4), (7, 0)], state
    )
    assert (4, 4) in cells and (7, 0) in cells
    assert len(set(eids)) == len(eids)
    edges = [state.fabric.edge_tuple(e) for e in eids]
    # hop counts measure the path from the *tree*, so each is at least 1
    # and the first-reached target is at least its Manhattan distance
    assert min(hops.values()) >= 1
    assert max(hops.values()) >= 7
    # the tree is connected: every edge endpoint is a tree cell
    for a, b in edges:
        assert a in cells and b in cells


def test_grow_steiner_tree_region_violation():
    device = custom_device(8, 8)
    state = RoutingState(device)
    with pytest.raises(RoutingError):
        grow_steiner_tree(
            device, {(0, 0)}, [(7, 7)], state, region=Rect(0, 0, 2, 2)
        )


def test_zero_capacity_channels_track_overuse():
    """cap == 0: the first occupant is already over capacity."""
    from repro.pnr.router import RouteTree

    device = custom_device(4, 4, channel_width=0)
    state = RoutingState(device)
    tree = RouteTree(0)
    tree.eids = (state.fabric.edge_id((0, 0), (0, 1)),)
    state.add(tree)
    over = [state.fabric.edge_tuple(e) for e in sorted(state.overused_ids)]
    assert over == [((0, 0), (0, 1))]
    state.remove(tree)
    assert not state.overused_ids and not state.usage


def test_routing_state_add_remove_roundtrip():
    device = custom_device(4, 4)
    state = RoutingState(device)
    from repro.pnr.router import RouteTree

    tree = RouteTree(0)
    tree.eids = tuple(
        state.fabric.edge_id(*e)
        for e in (((0, 0), (0, 1)), ((0, 1), (0, 2)))
    )
    state.add(tree)
    assert state.usage[((0, 0), (0, 1))] == 1
    state.remove(tree)
    assert not state.usage


def test_concurrent_routing_on_one_fabric_matches_serial():
    """Threads routing on one device share its fabric tables; each must
    still get exactly the serial routes (A* scratch is per thread)."""
    import sys
    import threading

    packed, device, placement = placed_design()

    edge_tuple = fabric_of(device).edge_tuple

    def edges_by_net(routes):
        return {
            idx: sorted(map(edge_tuple, tree.eids))
            for idx, tree in routes.items()
        }

    expected = edges_by_net(route_nets(packed, device, placement))
    got, errors = [], []

    def worker():
        try:
            for _ in range(3):
                got.append(
                    edges_by_net(route_nets(packed, device, placement))
                )
        except Exception as exc:  # pragma: no cover - failure reporting
            errors.append(exc)

    threads = [threading.Thread(target=worker) for _ in range(6)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors
    assert len(got) == 18
    assert all(routes == expected for routes in got)


def _reference_astar(sources, target, state, region, pres_fac):
    """Plain multi-source A* that queues every source up front.

    Same costs and tie-breaks as the router (``(f, counter)`` with the
    sources numbered in set order first), but dict bookkeeping and no
    lazy seeding.  Returns ``((path, eids) or None, expansions)``.
    """
    import heapq

    from repro.geometry import manhattan

    fab = state.fabric
    tid = fab.cell_id(target)
    mask = fab.cells_in([region]) if region is not None else None
    heap, best, parent, via = [], {}, {}, {}
    for counter, cell in enumerate(sources):
        cid = fab.cell_id(cell)
        heap.append((manhattan(cell, target), counter, cid, 0.0))
        best[cid], parent[cid] = 0.0, None
    counter = len(heap)
    heapq.heapify(heap)
    expansions = 0
    while heap:
        _, _, cid, g = heapq.heappop(heap)
        if g > best[cid] + 1e-9:
            continue
        expansions += 1
        if cid == tid:
            path, eids = [fab.xy[cid]], []
            while parent[cid] is not None:
                eids.append(via[cid])
                cid = parent[cid]
                path.append(fab.xy[cid])
            return (path[::-1], eids[::-1]), expansions
        for ncid, eid, _, _ in fab.nbr[cid]:
            if mask is not None and not mask[ncid] and ncid != tid:
                continue
            cost = g + 1.0 + state._history[eid]
            over = state._usage[eid] + 1 - state.capacity
            if over > 0:
                cost += pres_fac * over
            if ncid not in best or cost < best[ncid] - 1e-12:
                best[ncid], parent[ncid], via[ncid] = cost, cid, eid
                f = cost + manhattan(fab.xy[ncid], target)
                heapq.heappush(heap, (f, counter, ncid, cost))
                counter += 1
    return None, expansions


def test_astar_matches_queue_every_source_reference():
    """Lazy source seeding gives the reference's paths, eids and effort.

    Randomized cases cover large trees with many equal-``h`` sources
    (rings around the target), congested usage and history, region
    masks, a target unreachable inside its mask, and no sources.
    """
    import random

    from repro.pnr.router import _astar

    rng = random.Random(2024)
    device = custom_device(11, 8, channel_width=2)
    cells = [
        (x, y) for x in range(-1, device.nx + 1)
        for y in range(-1, device.ny + 1) if device.is_routable(x, y)
    ]
    kinds = ("ring", "tree", "region", "unreachable", "empty")
    seen = {kind: 0 for kind in kinds}
    for trial in range(400):
        kind = kinds[trial % len(kinds)]
        state = RoutingState(device)
        for eid in rng.sample(range(state.fabric.n_edges), 60):
            state._usage[eid] = rng.randrange(0, 5)
            state._history[eid] = rng.choice((0.0, 0.4, 1.2))
        target = rng.choice(cells)
        region = None
        if kind == "ring":
            d = rng.randrange(1, 6)
            ring = [c for c in cells if abs(c[0] - target[0])
                    + abs(c[1] - target[1]) in (d, d + 1)]
            sources = set(ring) | set(rng.sample(cells, 10))
        elif kind == "tree":
            sources = set(rng.sample(cells, rng.randrange(20, 70)))
        elif kind == "region":
            x0, y0 = rng.randrange(0, 6), rng.randrange(0, 4)
            region = Rect(x0, y0, x0 + rng.randrange(2, 5),
                          y0 + rng.randrange(2, 4))
            inside = list(region.sites())
            sources = set(rng.sample(inside, rng.randrange(1, 8)))
            target = rng.choice(inside + [(region.x1 + 1, region.y0)])
        elif kind == "unreachable":
            region = Rect(0, 0, 3, 2)
            sources = set(rng.sample(list(region.sites()), 4))
            target = (rng.randrange(6, device.nx), rng.randrange(5, device.ny))
        else:
            sources = set()
        pres_fac = rng.choice((0.5, 2.0, 8.0))
        meter = EffortMeter()
        got = _astar(sources, target, state, region, pres_fac, meter)
        want, want_expansions = _reference_astar(
            sources, target, state, region, pres_fac
        )
        assert got == want, (trial, kind)
        assert meter.route_expansions == want_expansions, (trial, kind)
        seen[kind] += got is not None
    # every kind that can connect did, and unreachable never did
    assert seen["ring"] == seen["tree"] == 80
    assert seen["region"] > 0
    assert seen["unreachable"] == seen["empty"] == 0


ROUTE_PINS = {
    ("9sym", 1): (
        ("4db21ecbe482aaa4e42f87463ceb7f697832f2f30adf51c70f8010716170bb50", 1548),
        ("a47aa503699d8d4bf192815890c48d472c8bc54a5986054d9ea35cc38092508d", 0),
    ),
    ("9sym", 2): (
        ("128229125d4ae0066bb68458f7a01d1f1a12dc28aeb4936570a2d55c196eb894", 1855),
        ("128229125d4ae0066bb68458f7a01d1f1a12dc28aeb4936570a2d55c196eb894", 0),
    ),
    ("s9234", 1): (
        ("d3f8323b536337c62a937a9ea87a67dc9fd13da9ee9eeba9df8b3cee41f52dec", 9822),
        ("24e78676a7ad7f3a3b7d77ccd5ad0c0bef07354c15aeedbdf31f7e4c3149aa36", 50),
    ),
    ("s9234", 2): (
        ("b625c449bfc533f2e4916d6183bc782635fad7014c6998c5e3980d518830a04b", 9499),
        ("9789f8480bf130de6603454fe2427a769643c5f7431e42454bf6be544bd63473", 10),
    ),
    # a des-sized design: large multi-sink trees, where A* seeding costs
    ("des", 1): (
        ("2d7ae770b70b382df729680b9ba32f1fe4e4c03c61910ace6a89922f16a63dcc", 154540),
        ("edb897266075df27f9dca8434cb6bbfd033e96a71e740d7af91b7997d7b021d2", 1292),
    ),
    # a 242-terminal net: the widest A* source sets of any design
    ("mips", 1): (
        ("ae244b2b4f1fa222b7c6be09cccdeb59207056b21fcaca2d25996acdbe373f95", 110233),
        ("3629e7386b4f125274cb1364355d0ddae9c5f82430e6f4ca715da58456c962a3", 1672),
    ),
}


def test_route_fingerprint_pinned():
    """Routes are byte-identical to the pinned ones."""
    import hashlib

    from repro.api.design import device_for
    from repro.generators import build_design
    from repro.pnr.flow import Layout, replace_region

    def fingerprint(routes, meter, edge_tuple):
        text = repr([
            (idx, sorted(map(edge_tuple, tree.eids)),
             sorted(tree.sink_hops.items()))
            for idx, tree in sorted(routes.items())
        ])
        return (
            hashlib.sha256(text.encode()).hexdigest(),
            meter.route_expansions,
        )

    fast = EFFORT_PRESETS["fast"]
    got = {}
    for name, seed in ROUTE_PINS:
        packed = build_design(name).packed
        device = device_for(packed)
        window = Rect(0, 0, device.nx // 4 - 1, device.ny // 4 - 1)
        placement = place_design(packed, device, seed=seed, preset=fast)
        state = RoutingState(device)
        meter = EffortMeter()
        routes = route_nets(packed, device, placement, state=state,
                            preset=fast, meter=meter)
        edge_tuple = fabric_of(device).edge_tuple
        full = fingerprint(routes, meter, edge_tuple)
        layout = Layout(packed, device, placement, routes, state)
        window_meter = EffortMeter()
        replace_region(
            layout, set(placement.blocks_in_region(window)), [window],
            seed=seed, preset=fast, meter=window_meter,
            confine_routing=True,
        )
        got[name, seed] = (
            full, fingerprint(layout.routes, window_meter, edge_tuple)
        )
    assert got == ROUTE_PINS

"""Maze router: connectivity, capacity negotiation, confinement."""

import pytest

from repro.arch import custom_device, pick_device
from repro.errors import RoutingError
from repro.geometry import Rect
from repro.pnr import EFFORT_PRESETS, EffortMeter, RoutingState, route_nets
from repro.pnr.placer import place_design
from repro.pnr.router import grow_steiner_tree
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
    for tree in routes.values():
        for a, b in tree.edges:
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
    cells, edges, hops, eids = grow_steiner_tree(
        device, {(0, 0)}, [(4, 4), (7, 0)], state
    )
    assert (4, 4) in cells and (7, 0) in cells
    assert sorted(eids) == sorted(state.fabric.edge_id(*e) for e in edges)
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
    tree.edges = {((0, 0), (0, 1))}
    state.add(tree)
    assert state.overused_edges() == [((0, 0), (0, 1))]
    state.remove(tree)
    assert not state.overused_ids and not state.usage


def test_routing_state_add_remove_roundtrip():
    device = custom_device(4, 4)
    state = RoutingState(device)
    from repro.pnr.router import RouteTree

    tree = RouteTree(0)
    tree.edges = {((0, 0), (0, 1)), ((0, 1), (0, 2))}
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

    def edges_by_net(routes):
        return {idx: sorted(tree.edges) for idx, tree in routes.items()}

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
}


def test_route_fingerprint_pinned():
    """Routes are byte-identical to the pinned ones."""
    import hashlib

    from repro.api.design import device_for
    from repro.generators import build_design
    from repro.pnr.flow import Layout, replace_region

    def fingerprint(routes, meter):
        text = repr([
            (idx, sorted(tree.edges), sorted(tree.sink_hops.items()))
            for idx, tree in sorted(routes.items())
        ])
        return (
            hashlib.sha256(text.encode()).hexdigest(),
            meter.route_expansions,
        )

    fast = EFFORT_PRESETS["fast"]
    got = {}
    for name in ("9sym", "s9234"):
        packed = build_design(name).packed
        device = device_for(packed)
        window = Rect(0, 0, device.nx // 4 - 1, device.ny // 4 - 1)
        for seed in (1, 2):
            placement = place_design(packed, device, seed=seed, preset=fast)
            state = RoutingState(device)
            meter = EffortMeter()
            routes = route_nets(packed, device, placement, state=state,
                                preset=fast, meter=meter)
            full = fingerprint(routes, meter)
            layout = Layout(packed, device, placement, routes, state)
            window_meter = EffortMeter()
            replace_region(
                layout, set(placement.blocks_in_region(window)), [window],
                seed=seed, preset=fast, meter=window_meter,
                confine_routing=True,
            )
            got[name, seed] = (full, fingerprint(layout.routes, window_meter))
    assert got == ROUTE_PINS

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
    cells, edges, hops = grow_steiner_tree(
        device, {(0, 0)}, [(4, 4), (7, 0)], state
    )
    assert (4, 4) in cells and (7, 0) in cells
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

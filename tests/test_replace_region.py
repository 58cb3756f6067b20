"""replace_region with confine_routing: the locked-interface invariants.

The tiling manager's whole correctness story rests on three properties
of the region-confined re-place-and-route:

* routes of nets that do not touch the region are byte-identical
  before and after;
* boundary-crossing nets keep their outside fragments and reconnect at
  the old interface cells;
* the resulting layout passes a full legality check (placement
  complete, every net connected over adjacent cells, channel usage
  bookkeeping consistent and within capacity).
"""

import pytest

from repro.arch import pick_device
from repro.geometry import Rect
from repro.pnr import EFFORT_PRESETS, full_place_and_route, replace_region
from tests.conftest import fresh_packed_design


def assert_layout_legal(layout, check_capacity: bool = True) -> None:
    from repro.pnr.flow import layout_legality_errors

    errors = layout_legality_errors(layout, check_capacity=check_capacity)
    assert not errors, "; ".join(errors)


def confined_context():
    """A routed design plus a region holding some (not all) CLBs."""
    packed = fresh_packed_design(width=10)
    device = pick_device(
        packed.n_clbs, area_overhead=1.0,
        min_io=len(packed.io_blocks()), channel_width=48,
    )
    layout = full_place_and_route(
        packed, device, seed=3, preset=EFFORT_PRESETS["fast"],
    )
    region = Rect(0, 0, device.nx - 1, device.ny // 2)
    movable = set(layout.placement.blocks_in_region(region))
    assert movable and len(movable) < packed.n_clbs
    return packed, device, layout, region, movable


def test_untouched_routes_byte_identical():
    packed, device, layout, region, movable = confined_context()
    untouched = {
        net.index
        for net in packed.nets.values()
        if net.driver not in movable
        and not any(s in movable for s in net.sinks)
    }
    edge_tuple = layout.state.fabric.edge_tuple
    before = {
        idx: (set(layout.routes[idx].cells),
              set(map(edge_tuple, layout.routes[idx].eids)),
              dict(layout.routes[idx].sink_hops))
        for idx in untouched
    }
    replace_region(
        layout, movable, [region], seed=5,
        preset=EFFORT_PRESETS["fast"], confine_routing=True,
    )
    for idx, (cells, edges, hops) in before.items():
        tree = layout.routes[idx]
        assert set(tree.cells) == cells
        assert set(map(edge_tuple, tree.eids)) == edges
        assert dict(tree.sink_hops) == hops


def test_crossing_nets_reconnect_at_old_interface():
    packed, device, layout, region, movable = confined_context()

    def inside(cell):
        return region.contains(*cell)

    edge_tuple = layout.state.fabric.edge_tuple

    def edges(tree):
        return set(map(edge_tuple, tree.eids))

    affected = {
        net.index for net in packed.nets_touching_blocks(movable)
    }
    old_outside = {}
    for idx in affected:
        tree = layout.routes.get(idx)
        if tree is None:
            continue
        outside = {
            e for e in edges(tree) if not (inside(e[0]) and inside(e[1]))
        }
        if outside and any(inside(c) for c in tree.cells):
            old_outside[idx] = outside
    assert old_outside, "test design produced no boundary-crossing nets"

    replace_region(
        layout, movable, [region], seed=5,
        preset=EFFORT_PRESETS["fast"], confine_routing=True,
    )
    for idx, outside in old_outside.items():
        tree = layout.routes[idx]
        # the outside fragment survives byte-for-byte ...
        assert outside <= edges(tree), (
            f"net {idx} lost its locked outside fragment"
        )
        # ... and the interface cells (outside-fragment endpoints inside
        # the region) are part of the rebuilt tree
        anchors = {
            c for e in outside for c in e if inside(c)
        }
        assert anchors <= set(tree.cells)


def test_full_legality_after_confined_replace():
    packed, device, layout, region, movable = confined_context()
    replace_region(
        layout, movable, [region], seed=5,
        preset=EFFORT_PRESETS["fast"], confine_routing=True,
    )
    for block in movable:
        assert region.contains(*layout.placement.site_of(block))
    assert_layout_legal(layout)


def test_legality_with_multiple_regions():
    packed, device, layout, _, _ = confined_context()
    r1 = Rect(0, 0, device.nx // 2, device.ny // 2)
    r2 = Rect(0, device.ny // 2 + 1, device.nx // 2, device.ny - 1)
    movable = set(layout.placement.blocks_in_region(r1)) | set(
        layout.placement.blocks_in_region(r2)
    )
    if not movable:
        pytest.skip("no blocks in the chosen regions")
    replace_region(
        layout, movable, [r1, r2], seed=9,
        preset=EFFORT_PRESETS["fast"], confine_routing=True,
    )
    assert_layout_legal(layout)


def test_stale_edge_ids_are_reported():
    from repro.pnr.flow import layout_legality_errors

    packed, device, layout, _, _ = confined_context()
    assert not layout_legality_errors(layout)
    idx, tree = next(
        (i, t) for i, t in layout.routes.items() if len(t.eids) >= 2
    )
    # occupancy follows the stale ids, so only the tree itself is wrong
    layout.state.remove(tree)
    tree.eids = tree.eids[:1] * 2 + tree.eids[2:]
    layout.state.add(tree)
    assert layout_legality_errors(layout) == [
        f"net {packed.nets[idx].name}: an edge listed twice"
    ]


def test_reroute_along_a_kept_edge_counts_it_once():
    """Between two regions, the rebuilt part may run along a kept edge;
    the tree's edge ids and the channel usage count that edge once."""
    from repro.api.design import device_for
    from repro.generators import build_design
    from repro.pnr import EffortMeter, Layout, RoutingState
    from repro.pnr.flow import _reroute_affected
    from repro.pnr.placement import Placement
    from repro.pnr.router import RouteTree

    packed = build_design("9sym").packed
    device = device_for(packed)
    net = next(
        n for n in packed.nets.values()
        if len(n.sinks) == 2 and n.driver not in n.sinks
        and all(packed.blocks[b].is_clb for b in (n.driver, *n.sinks))
    )
    placement = Placement(device, packed)
    for block, site in zip((net.driver, *net.sinks), ((0, 0), (0, 2), (3, 1))):
        placement.place_clb(block, site)
    # driver and first sink sit in two regions; the old route joins them
    # through the gap row y=1 and leaves it for the second sink
    path = [(0, 0), (0, 1), (0, 2)]
    branch = [(0, 1), (1, 1), (2, 1), (3, 1)]
    state = RoutingState(device)
    old = RouteTree(net.index)
    old.cells = set(path) | set(branch)
    old_edges = sorted(
        (a, b) for cells in (path, branch) for a, b in zip(cells, cells[1:])
    )
    old.eids = tuple(state.fabric.edge_id(*e) for e in old_edges)
    old.sink_hops = {net.sinks[0]: 2, net.sinks[1]: 4}
    state.add(old)
    layout = Layout(packed, device, placement, {net.index: old}, state)

    _reroute_affected(
        layout, [net.index], [Rect(0, 0, 1, 0), Rect(0, 2, 1, 2)],
        Rect(0, 0, 1, 2), True, EFFORT_PRESETS["fast"], EffortMeter(),
    )
    tree = layout.routes[net.index]
    edges = sorted(map(state.fabric.edge_tuple, tree.eids))
    assert edges == old_edges
    assert len(set(tree.eids)) == len(tree.eids)
    assert state.usage == {e: 1 for e in edges}

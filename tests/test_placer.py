"""Simulated-annealing placer: legality, constraints, determinism."""

import pytest

from repro.api.design import device_for
from repro.arch import custom_device, pick_device
from repro.errors import PlacementError
from repro.generators import build_design
from repro.geometry import Rect
from repro.pnr import EFFORT_PRESETS, EffortMeter, PlaceConstraints, Placement
from repro.pnr.placer import place_design, q_factor
from tests.conftest import fresh_packed_design


def test_q_factor_monotone():
    values = [q_factor(t) for t in range(2, 60)]
    assert all(b >= a for a, b in zip(values, values[1:]))


def test_placement_is_legal():
    packed = fresh_packed_design()
    device = pick_device(packed.n_clbs, area_overhead=0.5,
                         min_io=len(packed.io_blocks()))
    placement = place_design(packed, device, seed=1,
                             preset=EFFORT_PRESETS["fast"])
    placement.check_complete()
    # no two CLBs share a site
    assert len(placement.clb_at) == packed.n_clbs


def test_determinism_same_seed():
    packed = fresh_packed_design()
    device = pick_device(packed.n_clbs, area_overhead=0.5,
                         min_io=len(packed.io_blocks()))
    p1 = place_design(packed, device, seed=42, preset=EFFORT_PRESETS["fast"])
    p2 = place_design(packed, device, seed=42, preset=EFFORT_PRESETS["fast"])
    assert p1.pos == p2.pos


def test_different_seeds_differ():
    packed = fresh_packed_design()
    device = pick_device(packed.n_clbs, area_overhead=0.5,
                         min_io=len(packed.io_blocks()))
    p1 = place_design(packed, device, seed=1, preset=EFFORT_PRESETS["fast"])
    p2 = place_design(packed, device, seed=2, preset=EFFORT_PRESETS["fast"])
    assert p1.pos != p2.pos


def test_region_constraints_respected():
    packed = fresh_packed_design()
    device = pick_device(packed.n_clbs, area_overhead=1.5,
                         min_io=len(packed.io_blocks()))
    region = Rect(0, 0, device.nx - 1, 2)
    constraints = PlaceConstraints(
        regions={b.index: region for b in packed.clb_blocks()}
    )
    placement = place_design(
        packed, device, seed=3, preset=EFFORT_PRESETS["fast"],
        constraints=constraints,
    )
    for block in packed.clb_blocks():
        assert region.contains(*placement.site_of(block.index))


def test_free_sites_constraint():
    packed = fresh_packed_design()
    device = pick_device(packed.n_clbs, area_overhead=1.5,
                         min_io=len(packed.io_blocks()))
    allowed = {(x, y) for x in range(device.nx) for y in range(device.ny)
               if (x + y) % 2 == 0}
    constraints = PlaceConstraints(free_sites=allowed)
    if len(allowed) < packed.n_clbs:
        pytest.skip("checkerboard too small")
    placement = place_design(
        packed, device, seed=3, preset=EFFORT_PRESETS["fast"],
        constraints=constraints,
    )
    for block in packed.clb_blocks():
        assert placement.site_of(block.index) in allowed


def test_locked_blocks_do_not_move():
    packed = fresh_packed_design()
    device = pick_device(packed.n_clbs, area_overhead=0.5,
                         min_io=len(packed.io_blocks()))
    base = place_design(packed, device, seed=5, preset=EFFORT_PRESETS["fast"])
    locked = {b.index for b in packed.clb_blocks()[:3]}
    frozen_sites = {b: base.site_of(b) for b in locked}
    result = place_design(
        packed, device, seed=9, preset=EFFORT_PRESETS["fast"],
        initial=base,
        movable={b.index for b in packed.clb_blocks()} - locked,
    )
    for b, site in frozen_sites.items():
        assert result.site_of(b) == site


def test_effort_is_metered():
    packed = fresh_packed_design()
    device = pick_device(packed.n_clbs, area_overhead=0.5,
                         min_io=len(packed.io_blocks()))
    meter = EffortMeter()
    place_design(packed, device, seed=1, preset=EFFORT_PRESETS["fast"],
                 meter=meter)
    assert meter.place_moves > 0


def test_overfull_region_raises():
    packed = fresh_packed_design()
    device = pick_device(packed.n_clbs, area_overhead=0.5,
                         min_io=len(packed.io_blocks()))
    tiny = Rect(0, 0, 0, 0)
    constraints = PlaceConstraints(
        regions={b.index: tiny for b in packed.clb_blocks()}
    )
    with pytest.raises(PlacementError):
        place_design(packed, device, seed=1, constraints=constraints)


def test_initial_temperature_restores_placement():
    """The T0 sampling walk must not leak into the starting placement."""
    from repro.pnr import placer as placer_mod
    from repro.rng import make_rng

    packed = fresh_packed_design()
    device = pick_device(packed.n_clbs, area_overhead=0.5,
                         min_io=len(packed.io_blocks()))
    placement = place_design(packed, device, seed=7,
                             preset=EFFORT_PRESETS["fast"])
    movable = {b.index for b in packed.clb_blocks()}
    movable_list = sorted(movable)
    model = placer_mod._NetModel(packed, device, movable)
    model.rebuild(placement.pos)
    before_pos = dict(placement.pos)
    before_clb_at = dict(placement.clb_at)
    before_costs = list(model.cost)

    move = placer_mod._mover(
        placement, movable_list,
        placer_mod._region_bounds(PlaceConstraints(), device, movable_list),
        None, model, make_rng(7, "t0-test"),
    )
    temperature = placer_mod._initial_temperature(
        placement, movable_list, model, move,
        float(max(device.nx, device.ny)), EffortMeter(),
    )
    assert temperature > 0
    assert placement.pos == before_pos
    assert placement.clb_at == before_clb_at
    # cost caches were rebuilt against the restored placement
    assert model.cost == before_costs
    fresh = placer_mod._NetModel(packed, device, movable)
    fresh.rebuild(placement.pos)
    assert fresh.bbox == model.bbox
    assert fresh.xhist == model.xhist
    assert fresh.yhist == model.yhist


class _CountingRng:
    """Forwards to a real stream; counts ``random()`` draws.

    A move draws its block and site from ``getrandbits`` directly
    (``randrange`` unrolled), so that is the call to forward.
    """

    def __init__(self, rng):
        self._rng = rng
        self.random_calls = 0

    def getrandbits(self, k):
        return self._rng.getrandbits(k)

    def random(self):
        self.random_calls += 1
        return self._rng.random()


def test_net_model_matches_rebuild():
    """Every move leaves the incremental model equal to a rebuild.

    Overlapping per-block regions and a ``free_sites`` subset make both
    displacements and swaps legal; a mid temperature makes the moves
    that raise the cost both accepted and rejected.  Halfway through,
    ``model.rebuild`` runs under the live mover (as the T0 sample's undo
    does), and the moves after it must still keep the model exact.
    """
    from repro.pnr import placer as placer_mod
    from repro.rng import make_rng

    packed = build_design("9sym").packed
    device = device_for(packed)
    free_sites = {(x, y) for x in range(device.nx) for y in range(device.ny)
                  if (x + 2 * y) % 5}
    cut = (2 * device.nx) // 3
    regions = {
        b.index: (Rect(0, 0, cut, device.ny - 1) if i % 2
                  else Rect(device.nx - 1 - cut, 0, device.nx - 1,
                            device.ny - 1))
        for i, b in enumerate(packed.clb_blocks())
    }
    constraints = PlaceConstraints(regions=regions, free_sites=free_sites)
    placement = place_design(packed, device, seed=4,
                             preset=EFFORT_PRESETS["fast"],
                             constraints=constraints)
    movable = set(regions)
    movable_list = sorted(movable)
    bounds = placer_mod._region_bounds(constraints, device, movable_list)
    model = placer_mod._NetModel(packed, device, movable)
    model.rebuild(placement.pos)
    rng = _CountingRng(make_rng(11, "net-model"))
    move = placer_mod._mover(
        placement, movable_list, bounds, free_sites, model, rng
    )

    accepted = swaps = uphill_accepted = 0
    for i in range(2000):
        if i == 1000:
            model.rebuild(placement.pos)
        before_pos = dict(placement.pos)
        before_clb_at = dict(placement.clb_at)
        before_cost = model.total()
        delta = move(2.0, float(device.nx))
        if delta is None:
            assert placement.pos == before_pos
            assert placement.clb_at == before_clb_at
        else:
            accepted += 1
            uphill_accepted += delta > 0
            assert model.total() == pytest.approx(before_cost + delta)
            moved = [b for b in movable if placement.pos[b] != before_pos[b]]
            swaps += len(moved) == 2
        fresh = placer_mod._NetModel(packed, device, movable)
        fresh.rebuild(placement.pos)
        assert model.bbox == fresh.bbox
        assert model.cost == fresh.cost
        assert model.xhist == fresh.xhist
        assert model.yhist == fresh.yhist
    placement.check_complete()
    for b in movable:
        assert placement.pos[b] in free_sites
        assert regions[b].contains(*placement.pos[b])
    assert accepted > 0 and swaps > 0
    assert uphill_accepted > 0
    # every random() draw decides an uphill move; more draws than
    # uphill accepts means some evaluated moves were rejected
    assert rng.random_calls > uphill_accepted


def test_inlined_draws_reproduce_randrange():
    """A move proposes exactly the block and site that
    ``randrange`` on a twin ``Random`` draws, and leaves both streams in
    step — for movable lists of length 1, a power of two and neither,
    and for ranges of width 1 up to the whole device."""
    import random

    from repro.pnr import placer as placer_mod

    class _SiteSpy:
        """A ``free_sites`` that admits no site and records each query."""

        def __init__(self):
            self.asked = []

        def __contains__(self, site):
            self.asked.append(site)
            return False

    packed = build_design("9sym").packed
    device = device_for(packed)
    placement = place_design(packed, device, seed=1,
                             preset=EFFORT_PRESETS["fast"])
    movable = {b.index for b in packed.clb_blocks()}
    model = placer_mod._NetModel(packed, device, movable)
    model.rebuild(placement.pos)
    bounds = {}
    for i, b in enumerate(sorted(movable)):
        bx, by = placement.pos[b]
        bounds[b] = [
            (bx, bx, by, by),
            (bx, bx, 0, device.ny - 1),
            (0, device.nx - 1, 0, device.ny - 1),
        ][i % 3]
    spy = _SiteSpy()
    rng, twin = random.Random(5), random.Random(5)
    for size in (1, 8, 13, len(movable)):
        movable_list = sorted(movable)[:size]
        move = placer_mod._mover(
            placement, movable_list, bounds, spy, model, rng
        )
        for i in range(300):
            rlim = float(1 + i % device.nx)
            span = max(1, int(rlim))
            block = movable_list[twin.randrange(len(movable_list))]
            bx, by = placement.pos[block]
            x0, x1, y0, y1 = bounds[block]
            site = (
                twin.randrange(max(x0, bx - span), min(x1, bx + span) + 1),
                twin.randrange(max(y0, by - span), min(y1, by + span) + 1),
            )
            asked = len(spy.asked)
            assert move(1.0, rlim) is None
            assert spy.asked[asked:] == ([] if site == (bx, by) else [site])
            assert rng.getstate() == twin.getstate()
    assert len(spy.asked) > 300
    # empty ranges raise as randrange does instead of redrawing forever
    far = {b: (x + 5, x + 6, y, y) for b, (x, y) in placement.pos.items()}
    for movable_list, block_bounds in (([], bounds), (sorted(movable), far)):
        move = placer_mod._mover(
            placement, movable_list, block_bounds, None, model, rng
        )
        with pytest.raises(ValueError):
            move(1.0, 1.0)


def test_mixed_region_swaps_respected():
    """Swaps never carry a block out of its own region or off free_sites.

    Blocks alternate between two disjoint half-device regions; every
    third block is unconstrained, so it can propose a site across the
    cut whose confined occupant must then refuse the swap.
    """
    packed = build_design("9sym").packed
    device = device_for(packed)
    half = device.nx // 2
    left = Rect(0, 0, half - 1, device.ny - 1)
    right = Rect(half, 0, device.nx - 1, device.ny - 1)
    regions = {
        b.index: (left, right)[i % 2]
        for i, b in enumerate(packed.clb_blocks()) if i % 3
    }
    allowed = {(x, y) for x in range(device.nx) for y in range(device.ny)
               if (x + 2 * y) % 5}
    for side in (left, right):
        need = sum(1 for r in regions.values() if r is side)
        assert sum(1 for s in allowed if side.contains(*s)) >= need
    placement = place_design(
        packed, device, seed=3, preset=EFFORT_PRESETS["fast"],
        constraints=PlaceConstraints(regions=regions, free_sites=allowed),
    )
    placement.check_complete()
    for block in packed.clb_blocks():
        site = placement.site_of(block.index)
        assert site in allowed
        if block.index in regions:
            assert regions[block.index].contains(*site)


def test_placement_site_bookkeeping():
    packed = fresh_packed_design()
    device = custom_device(20, 20)
    placement = Placement(device, packed)
    clb = packed.clb_blocks()[0]
    placement.place_clb(clb.index, (3, 4))
    assert placement.site_of(clb.index) == (3, 4)
    placement.move_clb(clb.index, (5, 5))
    assert (3, 4) not in placement.clb_at
    placement.remove(clb.index)
    assert not placement.is_placed(clb.index)


#: sha256 of ``repr(sorted(placement.pos.items()))`` and ``place_moves``
#: for a full ``fast`` placement and a lower-left-window re-place.  Any
#: change to a pin changes every placement downstream; make it on
#: purpose and say why.
PLACEMENT_PINS = {
    ("9sym", 1): (
        ("487779429f110fdc9bd0bbc78c3b4f06790de788c9b0f3742607cb3047407932", 336),
        ("487779429f110fdc9bd0bbc78c3b4f06790de788c9b0f3742607cb3047407932", 149),
    ),
    ("9sym", 2): (
        ("838c19a4215eaec5930a2b71117ce098f469adb522532b0fdec2a42a79c6ee6c", 292),
        ("838c19a4215eaec5930a2b71117ce098f469adb522532b0fdec2a42a79c6ee6c", 0),
    ),
    ("s9234", 1): (
        ("9fcaba04f580955aeba4f485753bc1637138d29b7177a1a2abe979d5c1b4c9b2", 3000),
        ("21ba3d03a7f2f176c3b4824003dfef92dd67d960346bd238e693a1d894066b86", 206),
    ),
    ("s9234", 2): (
        ("9ce902db25d28ae80ebdaac03d057c5649cb2a3c9e968eb9aa5b989a14ab4641", 3420),
        ("8d73d78ae88bb92dba9620e634cc7897cf443a44c1cb307cce640dc5fbe422d6", 255),
    ),
    ("des", 1): (
        ("85eb642ff29beddae04ce0bdf2da894b21b4ae1f59ba4a70404e81dfbacfeaf1", 32284),
        ("e7b201654f02f2627110e9fdfc39477c5262d4cb11e630ab72cf6fc88b847fa1", 224),
    ),
    # a 242-terminal net and a swap-heavy anneal
    ("mips", 1): (
        ("be056284a832f23da466e193c484e95ab18064ab8599874d5d97739822e10144", 31578),
        ("0bdbc67de75816440bd0c3880195ccd790bf21febfc0b36f486d1acce87c22e6", 232),
    ),
}


def test_placement_fingerprint_pinned():
    """Placements are byte-identical to the pinned ones."""
    import hashlib

    def fingerprint(placement, meter):
        text = repr(sorted(placement.pos.items()))
        return hashlib.sha256(text.encode()).hexdigest(), meter.place_moves

    fast = EFFORT_PRESETS["fast"]
    got = {}
    for name, seed in PLACEMENT_PINS:
        packed = build_design(name).packed
        device = device_for(packed)
        window = Rect(0, 0, device.nx // 4 - 1, device.ny // 4 - 1)
        meter = EffortMeter()
        full = place_design(packed, device, seed=seed, preset=fast,
                            meter=meter)
        blocks = set(full.blocks_in_region(window))
        initial = full.copy()
        for b in blocks:
            initial.remove(b)
        window_meter = EffortMeter()
        replaced = place_design(
            packed, device, seed=seed, preset=fast, meter=window_meter,
            initial=initial, movable=blocks,
            constraints=PlaceConstraints(
                regions={b: window for b in blocks},
                free_sites=set(window.sites()),
            ),
        )
        got[name, seed] = (
            fingerprint(full, meter),
            fingerprint(replaced, window_meter),
        )
    assert got == PLACEMENT_PINS

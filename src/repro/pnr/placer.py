"""Simulated-annealing placer (VPR-style) with tiling constraints.

The annealer is the workhorse behind every experiment: initial placement
of whole designs, slack-aware tiled placement, tile-confined re-placement
and the incremental baseline's window re-placement all call
:func:`place_design` with different constraint sets.

Key features:

* classic adaptive schedule — starting temperature from sampled move
  statistics, acceptance-driven cooling, shrinking range limiter;
* **region constraints** per block (tile rectangles) and a **movable**
  block set — every other block stays locked (the paper's "all
  resources are locked" default);
* wirelength cost = half-perimeter per net scaled by the usual
  fanout correction factor, kept incrementally from per-net coordinate
  histograms so no move ever rescans a net's terminals.  A proposed
  move is scored read-only from the unchanged histograms; only an
  accepted move updates them, so a rejected one needs no undo;
* every proposed move is charged to an :class:`EffortMeter`, which is
  how Figure 5's effort comparison is measured;
* a move's three uniform draws read ``rng.getrandbits`` inline with
  :meth:`random.Random.randrange`'s own rejection rule (``k =
  n.bit_length()`` bits, redrawn while ``>= n``), so they consume the
  identical stream without its two Python call layers per draw.
"""

from __future__ import annotations

import math
from typing import Callable

from repro.arch.device import Device
from repro.errors import PlacementError
from repro.pnr.effort import EffortMeter, EffortPreset, EFFORT_PRESETS
from repro.pnr.placement import PlaceConstraints, Placement
from repro.rng import make_rng
from repro.synth.pack import PackedDesign

#: VPR crossing-count correction for multi-terminal net HPWL.
_CROSSING = [
    1.0, 1.0, 1.0, 1.0, 1.0828, 1.1536, 1.2206, 1.2823, 1.3385, 1.3991,
    1.4493, 1.4974, 1.5455, 1.5937, 1.6418, 1.6899, 1.7304, 1.7709, 1.8114,
    1.8519, 1.8924,
]


def q_factor(n_terminals: int) -> float:
    if n_terminals < len(_CROSSING):
        return _CROSSING[n_terminals]
    return 1.8924 + 0.02616 * (n_terminals - len(_CROSSING) + 1)


def place_design(
    packed: PackedDesign,
    device: Device,
    seed: int = 1,
    preset: EffortPreset | None = None,
    meter: EffortMeter | None = None,
    initial: Placement | None = None,
    constraints: PlaceConstraints | None = None,
    movable: set[int] | None = None,
) -> Placement:
    """Place ``packed`` on ``device`` and return the placement.

    ``movable`` selects which CLB blocks the annealer may touch (default:
    every CLB); all other blocks stay locked and must already be placed
    by ``initial``.  IOB blocks missing from ``initial`` are spread
    deterministically around the ring.
    """
    preset = preset or EFFORT_PRESETS["normal"]
    meter = meter if meter is not None else EffortMeter()
    constraints = constraints or PlaceConstraints()
    rng = make_rng(seed, "place", packed.netlist.name)

    placement = initial.copy() if initial is not None else Placement(device, packed)

    clb_indices = {b.index for b in packed.clb_blocks()}
    movable_set = (
        clb_indices if movable is None else set(movable) & clb_indices
    )

    _place_iobs(packed, device, placement)
    _seed_movable(packed, device, placement, constraints, movable_set, rng)
    _check_unmovable_placed(packed, placement, movable_set)

    if movable_set:
        _anneal(
            packed, device, placement, constraints, movable_set, rng, preset, meter
        )
    placement.check_complete()
    return placement


# ----------------------------------------------------------------------
# initial placement
# ----------------------------------------------------------------------

def _place_iobs(packed: PackedDesign, device: Device, placement: Placement) -> None:
    unplaced = [
        b for b in packed.io_blocks() if not placement.is_placed(b.index)
    ]
    if not unplaced:
        return
    slots = device.io_slots()
    fill: dict[tuple[int, int], int] = {
        slot: len(pads) for slot, pads in placement.io_at.items()
    }
    n = len(unplaced)
    if n > device.spec.io_capacity:
        raise PlacementError(
            f"{n} IOBs exceed device capacity {device.spec.io_capacity}"
        )
    for i, block in enumerate(unplaced):
        start = (i * len(slots)) // max(1, n)
        for probe in range(len(slots)):
            slot = slots[(start + probe) % len(slots)]
            if fill.get(slot, 0) < device.io_per_slot:
                placement.place_io(block.index, slot)
                fill[slot] = fill.get(slot, 0) + 1
                break
        else:
            raise PlacementError("ran out of IOB slots")


def _seed_movable(
    packed: PackedDesign,
    device: Device,
    placement: Placement,
    constraints: PlaceConstraints,
    movable: set[int],
    rng,
) -> None:
    """Random initial site for movable blocks lacking one."""
    todo = sorted(b for b in movable if not placement.is_placed(b))
    if not todo:
        return
    by_region: dict[object, list[int]] = {}
    for b in todo:
        key = constraints.region_of(b, device)
        by_region.setdefault(key, []).append(b)
    for region, blocks in by_region.items():
        sites = [
            s
            for s in placement.free_clb_sites_in(region)
            if constraints.free_sites is None or s in constraints.free_sites
        ]
        if len(sites) < len(blocks):
            raise PlacementError(
                f"region {region} has {len(sites)} free sites for "
                f"{len(blocks)} blocks"
            )
        rng.shuffle(sites)
        for block, site in zip(blocks, sites):
            placement.place_clb(block, site)


def _check_unmovable_placed(
    packed: PackedDesign, placement: Placement, movable: set[int]
) -> None:
    for block in packed.clb_blocks():
        if block.index not in movable and not placement.is_placed(block.index):
            raise PlacementError(
                f"immovable block {block.name} has no initial site"
            )


# ----------------------------------------------------------------------
# annealing
# ----------------------------------------------------------------------

class _NetModel:
    """Net structures + incrementally maintained bounding-box costs.

    Per-net state lives in lists indexed by the net's slot, its position
    in ``active_nets``; ``nets_of_block`` and ``net_sets_of_block`` hold
    slots.  Each active net keeps, per axis, a histogram of its terminals'
    coordinates (index ``coordinate + 1``, so the IOB ring at ``-1``
    lands on 0) and its bounding box ``(xmin, xmax, ymin, ymax)`` in
    those indices.  A proposed move reads the new box off the unchanged
    histograms: a destination beyond an extreme becomes the extreme, and
    an extreme whose last terminal leaves walks inward to the next
    non-empty bucket or to the destination, whichever comes first — no
    net's terminals are ever rescanned.  An accepted move then shifts
    the terminal between buckets.  Costs are byte-identical with a full
    recompute (integer span times the same crossing factor).
    """

    def __init__(
        self, packed: PackedDesign, device: Device, movable: set[int]
    ) -> None:
        self.width = (device.nx + 2, device.ny + 2)
        self.nets_of_block: dict[int, list[int]] = {b: [] for b in movable}
        self.net_sets_of_block: dict[int, set[int]] = {b: set() for b in movable}
        self.active_nets: list[int] = []
        self.terminals: list[list[int]] = []
        self.q: list[float] = []
        for net in packed.nets.values():
            blocks = [net.driver, *net.sinks]
            if not any(b in movable for b in blocks):
                continue
            slot = len(self.active_nets)
            self.active_nets.append(net.index)
            self.terminals.append(blocks)
            self.q.append(q_factor(len(blocks)))
            for b in blocks:
                if b in movable:
                    self.nets_of_block[b].append(slot)
                    self.net_sets_of_block[b].add(slot)
        n = len(self.active_nets)
        self.xhist: list[list[int]] = [[]] * n
        self.yhist: list[list[int]] = [[]] * n
        self.bbox: list[tuple[int, int, int, int]] = [(0, 0, 0, 0)] * n
        self.cost: list[float] = [0.0] * n

    def rebuild(self, pos: dict[int, tuple[int, int]]) -> None:
        wx, wy = self.width
        for n, blocks in enumerate(self.terminals):
            xh, yh = [0] * wx, [0] * wy
            for b in blocks:
                x, y = pos[b]
                xh[x + 1] += 1
                yh[y + 1] += 1
            xs = [i for i, count in enumerate(xh) if count]
            ys = [i for i, count in enumerate(yh) if count]
            box = (xs[0], xs[-1], ys[0], ys[-1])
            self.xhist[n], self.yhist[n], self.bbox[n] = xh, yh, box
            self.cost[n] = ((box[1] - box[0]) + (box[3] - box[2])) * self.q[n]

    def total(self) -> float:
        return sum(self.cost)


def _anneal(
    packed: PackedDesign,
    device: Device,
    placement: Placement,
    constraints: PlaceConstraints,
    movable: set[int],
    rng,
    preset: EffortPreset,
    meter: EffortMeter,
) -> None:
    model = _NetModel(packed, device, movable)
    if not model.active_nets:
        return
    model.rebuild(placement.pos)

    movable_list = sorted(movable)
    bounds = _region_bounds(constraints, device, movable_list)
    move = _mover(
        placement, movable_list, bounds, constraints.free_sites, model, rng
    )
    rlim = float(max(device.nx, device.ny))
    temperature = _initial_temperature(
        placement, movable_list, model, move, rlim, meter
    )
    total = model.total()

    moves_per_temp = max(4, int(preset.inner_num * len(movable_list) ** (4 / 3)))
    # small problems converge in few temperatures; cap the schedule so a
    # six-CLB tile job really is cheap (the effect Figure 5 measures)
    max_temps = min(400, 40 + 12 * int(len(movable_list) ** 0.5))

    for _ in range(max_temps):
        accepted = 0
        for _ in range(moves_per_temp):
            meter.place_moves += 1
            delta = move(temperature, rlim)
            if delta is not None:
                total += delta
                accepted += 1
        rate = accepted / moves_per_temp
        temperature *= _cooling_factor(rate)
        rlim = min(
            float(max(device.nx, device.ny)),
            max(1.0, rlim * (1.0 - 0.44 + rate)),
        )
        if temperature < preset.exit_ratio * max(total, 1.0) / len(
            model.active_nets
        ):
            break

    # zero-temperature quench: greedy pass accepting only improvements
    for _ in range(moves_per_temp):
        meter.place_moves += 1
        delta = move(0.0, max(1.0, rlim))
        if delta is not None:
            total += delta


def _region_bounds(
    constraints: PlaceConstraints, device: Device, blocks: list[int]
) -> dict[int, tuple[int, int, int, int]]:
    """Each block's allowed region as ``(x0, x1, y0, y1)``."""
    bounds = {}
    for b in blocks:
        r = constraints.region_of(b, device)
        bounds[b] = (r.x0, r.x1, r.y0, r.y1)
    return bounds


def _initial_temperature(
    placement, movable_list, model, move, rlim, meter,
) -> float:
    """VPR rule: T0 = 20 x stddev of cost over a random-move sample.

    Sampling runs real moves at infinite temperature, so every proposal
    is accepted and the placement drifts.  The pre-sample placement is
    restored afterwards and the cost caches rebuilt — annealing must
    start from the caller's placement, not a random walk off it.
    """
    saved = {b: placement.pos[b] for b in movable_list}
    deltas = []
    samples = min(60, 5 * len(movable_list))
    for _ in range(samples):
        meter.place_moves += 1
        delta = move(float("inf"), rlim)
        if delta is not None:
            deltas.append(delta)

    # undo the sampling walk: put every movable block back
    for b in movable_list:
        placement.remove(b)
    for b, site in saved.items():
        placement.place_clb(b, site)
    model.rebuild(placement.pos)

    if len(deltas) < 2:
        return 1.0
    mean = sum(deltas) / len(deltas)
    var = sum((d - mean) ** 2 for d in deltas) / (len(deltas) - 1)
    return max(1e-6, 20.0 * math.sqrt(var))


def _cooling_factor(acceptance_rate: float) -> float:
    if acceptance_rate > 0.96:
        return 0.5
    if acceptance_rate > 0.8:
        return 0.9
    if acceptance_rate > 0.15:
        return 0.95
    return 0.8


def _mover(
    placement: Placement,
    movable_list: list[int],
    bounds: dict[int, tuple[int, int, int, int]],
    free_sites: set[tuple[int, int]] | None,
    model: _NetModel,
    rng,
) -> Callable[[float, float], float | None]:
    """The anneal's move: ``move(temperature, rlim)`` proposes one
    displace/swap and returns the accepted delta or None.

    ``bounds`` holds every movable block's region (see
    :func:`_region_bounds`).  The lookups a move needs are bound once
    here, so ``model`` must be updated in place (as
    :meth:`_NetModel.rebuild` does), never given new containers.  A
    move is scored read-only: each affected net's new box comes from
    its unchanged histograms, and only an accepted move shifts them and
    touches ``placement``.  Each draw is ``rng.randrange`` unrolled
    (see the module docstring).
    """
    bits = rng.getrandbits
    random = rng.random
    exp = math.exp
    n_movable = len(movable_list)
    k_movable = n_movable.bit_length()
    pos = placement.pos
    occupant_at = placement.clb_at.get
    nets_of_block = model.nets_of_block
    net_sets_of_block = model.net_sets_of_block
    xhist, yhist, bbox = model.xhist, model.yhist, model.bbox
    cost_cache, q = model.cost, model.q

    def move(temperature: float, rlim: float) -> float | None:
        if not n_movable:
            raise ValueError("empty range for randrange()")
        r = bits(k_movable)
        while r >= n_movable:
            r = bits(k_movable)
        block = movable_list[r]
        old_site = pos[block]
        bx, by = old_site
        x0, x1, y0, y1 = bounds[block]
        span = max(1, int(rlim))
        xlo, xhi = max(x0, bx - span), min(x1, bx + span)
        ylo, yhi = max(y0, by - span), min(y1, by + span)
        if xhi < xlo or yhi < ylo:
            raise ValueError("empty range for randrange()")
        n = xhi + 1 - xlo
        k = n.bit_length()
        rx = bits(k)
        while rx >= n:
            rx = bits(k)
        n = yhi + 1 - ylo
        k = n.bit_length()
        ry = bits(k)
        while ry >= n:
            ry = bits(k)
        site = (xlo + rx, ylo + ry)
        if site == old_site:
            return None
        if free_sites is not None and site not in free_sites:
            return None

        occupant = occupant_at(site)
        if occupant is not None:
            # the occupant swaps into old_site: it must be movable and
            # allowed there
            ob = bounds.get(occupant)
            if ob is None or not (ob[0] <= bx <= ob[1] and ob[2] <= by <= ob[3]):
                return None
            if free_sites is not None and old_site not in free_sites:
                return None

        # each leg shifts one block's terminals, in indices coordinate
        # + 1 (see _NetModel); a net holding both swapped blocks (in
        # ``shared``) keeps its box, so skipping it adds exactly 0.0
        bx += 1
        by += 1
        sx, sy = site[0] + 1, site[1] + 1
        if occupant is None:
            legs = ((nets_of_block[block], (), bx, by, sx, sy),)
        else:
            legs = (
                (nets_of_block[block], net_sets_of_block[occupant],
                 bx, by, sx, sy),
                (nets_of_block[occupant], net_sets_of_block[block],
                 sx, sy, bx, by),
            )

        # a moved extreme whose bucket empties walks inward to the next
        # non-empty bucket or to the destination, whichever comes first
        delta = 0.0
        boxes: list[tuple[int, int, int, int]] = []
        costs: list[float] = []
        for nets, shared, fx, fy, tx, ty in legs:
            for n in nets:
                if n in shared:
                    continue
                xmin, xmax, ymin, ymax = bbox[n]
                if fx != tx:
                    xh = xhist[n]
                    if tx < xmin:
                        xmin = tx
                    elif fx == xmin and xh[fx] == 1:
                        xmin += 1
                        while not xh[xmin] and xmin != tx:
                            xmin += 1
                    if tx > xmax:
                        xmax = tx
                    elif fx == xmax and xh[fx] == 1:
                        xmax -= 1
                        while not xh[xmax] and xmax != tx:
                            xmax -= 1
                if fy != ty:
                    yh = yhist[n]
                    if ty < ymin:
                        ymin = ty
                    elif fy == ymin and yh[fy] == 1:
                        ymin += 1
                        while not yh[ymin] and ymin != ty:
                            ymin += 1
                    if ty > ymax:
                        ymax = ty
                    elif fy == ymax and yh[fy] == 1:
                        ymax -= 1
                        while not yh[ymax] and ymax != ty:
                            ymax -= 1
                c = ((xmax - xmin) + (ymax - ymin)) * q[n]
                boxes.append((xmin, xmax, ymin, ymax))
                costs.append(c)
                delta += c - cost_cache[n]

        if delta > 0 and not (
            temperature > 0 and random() < exp(-delta / temperature)
        ):
            return None

        if occupant is None:
            placement.move_clb(block, site)
        else:
            placement.swap_clbs(block, occupant)
        i = 0
        for nets, shared, fx, fy, tx, ty in legs:
            for n in nets:
                if n in shared:
                    continue
                xh, yh = xhist[n], yhist[n]
                xh[fx] -= 1
                xh[tx] += 1
                yh[fy] -= 1
                yh[ty] += 1
                bbox[n] = boxes[i]
                cost_cache[n] = costs[i]
                i += 1
        return delta

    return move

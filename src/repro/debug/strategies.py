"""Back-end strategies under comparison (the paper's Figure 5 contenders).

Every strategy answers one question — *what does it cost to push a
debugging change into the physical design?* — through a common
interface:

* :class:`TiledStrategy` — the paper's contribution: tile on first use,
  then commit each change with tile-confined re-place-and-route;
* :class:`QuickEcoStrategy` — Fang/Wu/Yen's DAC'97 system: trace the
  change to its *functional block* and re-place-and-route that block.
  Per paper §6 each experimental design is one functional block, so the
  whole design is re-implemented;
* :class:`IncrementalStrategy` — incremental P&R: rip up a window around
  the change, growing it to make room, with global rerouting.

Each commit returns an :class:`EffortMeter`; histories accumulate in
``commit_history`` for the experiment drivers.

:meth:`BaseStrategy.build_initial` implements the original design
(step 2).  Only the strategies that commit against its routes
(``reads_initial_routes``: ``quick_eco`` and ``incremental``) route it;
``tiled`` and ``sat`` read only its placement, which seeds the tiling,
so they place it and route nothing.  The meter handed to
``build_initial`` (a run's ``effort["initial"]``) therefore counts
placement only for ``tiled`` and ``sat``, and placement plus routing
for the other two.
"""

from __future__ import annotations

from dataclasses import dataclass

from typing import Callable

from repro.arch.device import Device
from repro.errors import DebugFlowError, UnknownStrategyError
from repro.pnr.effort import EffortMeter, EffortPreset, EFFORT_PRESETS
from repro.pnr.flow import Layout, full_place_and_route, incremental_update
from repro.rng import derive_seed
from repro.synth.pack import PackedDesign
from repro.tiling.cache import (
    TileConfigCache,
    cached_full_place,
    cached_full_place_and_route,
)
from repro.tiling.manager import TiledLayout, absorb_changes
from repro.tiling.partition import TilingOptions


@dataclass
class CommitRecord:
    """One committed change and what it cost."""

    description: str
    effort: EffortMeter
    detail: str = ""
    #: served by a precomputed tile configuration (tiled only)
    cache_hit: bool = False


class BaseStrategy:
    """Common state: the packed design, device, and commit history."""

    name = "base"
    #: strategies may opt the localizer into SAT-guided candidate
    #: pruning (see :class:`repro.sat.diagnose.SuspectPruner`)
    sat_localization = False
    #: whether commits read the untiled routes, so that
    #: :meth:`build_initial` must route the design and not only place it
    reads_initial_routes = True

    def __init__(
        self,
        packed: PackedDesign,
        device: Device,
        seed: int = 1,
        preset: EffortPreset | None = None,
        tiling: TilingOptions | None = None,
        tile_cache: TileConfigCache | None = None,
    ) -> None:
        self.packed = packed
        self.device = device
        self.seed = seed
        self.preset = preset or EFFORT_PRESETS["normal"]
        self.tiling_options = tiling or TilingOptions(n_tiles=10)
        #: configuration cache for initial P&R and tile commits, owned
        #: by the caller; None (the default) computes every
        #: implementation fresh and replays nothing
        self.tile_cache = tile_cache
        self.commit_history: list[CommitRecord] = []
        #: commits served from the tile-configuration cache (tiled only)
        self.cache_hits = 0
        #: observer called with each :class:`CommitRecord` as it lands —
        #: the pipeline's ``on_commit`` hook attaches here
        self.commit_listener: Callable[[CommitRecord], None] | None = None
        self._commit_count = 0
        self._layout: Layout | None = None

    # -- construction --------------------------------------------------

    def build_initial(self, meter: EffortMeter | None = None) -> Layout:
        """Step 2: the original implementation (not a debugging cost).

        Placed and routed when the strategy ``reads_initial_routes``,
        placed only otherwise.  Served from the whole-design
        configuration cache when the identical implementation was
        computed before (e.g. the same campaign re-run under another
        simulation engine).
        """
        meter = meter if meter is not None else EffortMeter()
        if self.reads_initial_routes:
            self._layout = cached_full_place_and_route(
                self.packed, self.device, seed=self.seed,
                preset=self.preset, meter=meter, strict_routing=False,
                context="initial", cache=self.tile_cache,
            )
        else:
            self._layout = cached_full_place(
                self.packed, self.device, seed=self.seed,
                preset=self.preset, meter=meter, cache=self.tile_cache,
            )
        return self._layout

    @property
    def layout(self) -> Layout:
        if self._layout is None:
            raise DebugFlowError("call build_initial() first")
        return self._layout

    def prepare_for_debug(self) -> None:
        """Hook: run once after the first error is detected (steps 4-8)."""

    def _next_seed(self) -> int:
        self._commit_count += 1
        return derive_seed(self.seed, self.name, self._commit_count)

    def commit(self, description: str, anchor_instance: str | None = None
               ) -> EffortMeter:
        """Push every netlist edit since the last commit into the layout.

        The edits come from the netlist's edit log
        (:func:`~repro.tiling.manager.absorb_changes`); ``description``
        names the step in the :class:`CommitRecord`, and
        ``anchor_instance`` locates a change that touched no placed
        block (a purely additive probe, say).
        """
        raise NotImplementedError

    def _record_commit(self, record: CommitRecord) -> None:
        self.commit_history.append(record)
        if self.commit_listener is not None:
            self.commit_listener(record)

    @property
    def total_effort(self) -> EffortMeter:
        total = EffortMeter()
        for rec in self.commit_history:
            total = total.merged_with(rec.effort)
        return total


class TiledStrategy(BaseStrategy):
    """The paper's approach."""

    name = "tiled"
    #: the tiling reads the initial placement, never its routes
    reads_initial_routes = False

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.tiled: TiledLayout | None = None

    def prepare_for_debug(self) -> None:
        """Steps 4-8: re-place with slack, draw boundaries, lock.

        Tiling setup is a one-time cost, *not* charged to per-change
        commits (the paper reports it as Table 1 overhead instead).
        """
        if self.tiled is not None:
            return
        self.tiled = TiledLayout.create(
            self.packed, self.device, self.tiling_options,
            seed=self.seed, preset=self.preset,
            initial_layout=self._layout,
            tile_cache=self.tile_cache,
        )
        self._layout = self.tiled.layout

    def commit(self, description: str, anchor_instance: str | None = None
               ) -> EffortMeter:
        if self.tiled is None:
            self.prepare_for_debug()
        assert self.tiled is not None
        report = self.tiled.apply_changeset(
            seed=self._next_seed(), preset=self.preset,
            anchor_instance=anchor_instance,
        )
        self._layout = self.tiled.layout
        detail = f"tiles {report.affected_tiles}"
        if report.cache_hit:
            self.cache_hits += 1
            detail += " (cached config)"
        self._record_commit(CommitRecord(
            description, report.effort, detail=detail,
            cache_hit=report.cache_hit,
        ))
        return report.effort


class SatTiledStrategy(TiledStrategy):
    """Tiled commits plus SAT-guided candidate elimination.

    The physical back end is identical to :class:`TiledStrategy`; the
    difference is in the localizer, which consults the CDCL solver
    before each probe (see :mod:`repro.sat.diagnose`): suspects whose
    relaxation provably cannot reproduce the round's observed
    discrepancies are dropped — together with the cone subsets they
    dominate — *before* an observation-point commit is spent on them.
    Elimination is sound (only candidates that cannot be the error are
    removed), so the strategy localizes whatever ``tiled`` localizes,
    in at most as many probes.
    """

    name = "sat"
    sat_localization = True


class QuickEcoStrategy(BaseStrategy):
    """Functional-block granularity: re-P&R the whole affected block.

    Per paper §6 every experimental design is a single functional
    block, so each commit re-places-and-routes the entire design.
    """

    name = "quick_eco"

    def commit(self, description: str, anchor_instance: str | None = None
               ) -> EffortMeter:
        meter = EffortMeter()
        absorb_changes(self.packed, self._layout)
        self._layout = full_place_and_route(
            self.packed, self.device, seed=self._next_seed(),
            preset=self.preset, meter=meter, strict_routing=False,
        )
        self._record_commit(
            CommitRecord(description, meter, detail="whole block")
        )
        return meter


class IncrementalStrategy(BaseStrategy):
    """Window-based incremental place-and-route."""

    name = "incremental"

    def commit(self, description: str, anchor_instance: str | None = None
               ) -> EffortMeter:
        meter = EffortMeter()
        changed, fresh, net_ids = absorb_changes(self.packed, self._layout)
        anchor_blocks = set(changed)
        if not anchor_blocks and anchor_instance is not None:
            block = self.packed.block_of_instance.get(anchor_instance)
            if block is not None:
                anchor_blocks = {block}
        if not anchor_blocks:
            # no placed anchor: fall back to the device center block
            placed = sorted(self.layout.placement.clb_at.values())
            if not placed:
                raise DebugFlowError("empty layout cannot be updated")
            anchor_blocks = {placed[len(placed) // 2]}
        window = incremental_update(
            self.layout, anchor_blocks, new_blocks=fresh,
            seed=self._next_seed(), preset=self.preset, meter=meter,
            extra_nets=net_ids,
        )
        self._record_commit(
            CommitRecord(description, meter, detail=f"window {window}")
        )
        return meter


#: Single source of truth for strategy resolution — the CLI and
#: :class:`repro.api.RunSpec` validation key off this mapping.
STRATEGY_REGISTRY: dict[str, type[BaseStrategy]] = {
    "tiled": TiledStrategy,
    "sat": SatTiledStrategy,
    "quick_eco": QuickEcoStrategy,
    "incremental": IncrementalStrategy,
}

STRATEGY_NAMES = tuple(STRATEGY_REGISTRY)


def make_strategy(
    name: str,
    packed: PackedDesign,
    device: Device,
    seed: int = 1,
    preset: EffortPreset | None = None,
    tiling: TilingOptions | None = None,
    tile_cache: TileConfigCache | None = None,
) -> BaseStrategy:
    """Factory keyed by strategy name (see :data:`STRATEGY_REGISTRY`)."""
    try:
        cls = STRATEGY_REGISTRY[name]
    except KeyError:
        raise UnknownStrategyError(
            f"unknown strategy {name!r}; valid strategies: "
            + ", ".join(sorted(STRATEGY_REGISTRY))
        ) from None
    return cls(packed, device, seed=seed, preset=preset, tiling=tiling,
               tile_cache=tile_cache)

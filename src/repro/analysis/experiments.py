"""Experiment drivers — one per table/figure of the paper.

All drivers share :class:`ExperimentConfig` (designs, seed, effort
preset) and an internal per-design context cache so a driver that needs
"the tiled layout of s9234 at 10 tiles" does not re-run place-and-route
for every data point.

Paper parameters reproduced:

* Table 1 — 20 % requested slack, design-size/10 tiles, area and timing
  overhead of the tiled layout vs the untiled one;
* Figures 3 & 4 — ten tiles per design, 20 % slack (the s9234 worked
  example in §6.1: "ten tiles that average 23.5 CLBs ... approximately
  4.7 CLBs to implement test logic");
* Figure 5 — tile sizes 2.5 / 5 / 15 / 25 % of the design; speedup of a
  single-tile change vs the Quick_ECO (whole functional block = whole
  design, §6) and incremental baselines.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field

from repro.api.design import device_for, load_bundle
from repro.api.spec import RunSpec
from repro.arch.device import Device
from repro.errors import TilingError
from repro.generators.registry import paper_design_names
from repro.netlist.cells import CellKind
from repro.pnr.effort import EffortMeter, EFFORT_PRESETS, EffortPreset
from repro.pnr.flow import Layout, full_place_and_route, incremental_update
from repro.rng import derive_seed
from repro.tiling.manager import TiledLayout
from repro.tiling.partition import TilingOptions

FIG5_TILE_FRACTIONS = (0.025, 0.05, 0.15, 0.25)
LOGIC_SIZES = tuple(range(1, 101, 9))  # paper x-axis: 1, 10, 19, ... 100
TEST_POINTS = tuple(range(1, 101, 9))


@dataclass
class ExperimentConfig:
    """Shared knobs for every driver."""

    designs: list[str] = field(default_factory=paper_design_names)
    seed: int = 1
    preset: EffortPreset = field(
        default_factory=lambda: EFFORT_PRESETS["fast"]
    )
    area_overhead: float = 0.20
    n_tiles: int = 10


class _DesignContext:
    """Lazily built per-design artifacts, shared across drivers."""

    def __init__(self, name: str, config: ExperimentConfig) -> None:
        self.name = name
        self.config = config
        # design/device resolution is shared with the repro.api facade
        self.bundle = load_bundle(
            RunSpec(design=name, design_seed=config.seed)
        )
        self.device: Device = device_for(
            self.bundle.packed,
            area_overhead=config.area_overhead + 0.15,
            min_io_extra=8,
        )
        self._untiled: Layout | None = None
        self._untiled_effort: EffortMeter | None = None
        self._tiled: dict[int, TiledLayout] = {}

    def untiled(self) -> tuple[Layout, EffortMeter]:
        if self._untiled is None:
            meter = EffortMeter()
            self._untiled = full_place_and_route(
                self.bundle.packed, self.device,
                seed=self.config.seed, preset=self.config.preset,
                meter=meter, strict_routing=False,
            )
            self._untiled_effort = meter
        assert self._untiled_effort is not None
        return self._untiled, self._untiled_effort

    def tiled(self, n_tiles: int) -> TiledLayout:
        if n_tiles not in self._tiled:
            untiled, _ = self.untiled()
            options = TilingOptions(
                n_tiles=n_tiles, area_overhead=self.config.area_overhead
            )
            self._tiled[n_tiles] = TiledLayout.create(
                self.bundle.packed, self.device, options,
                seed=self.config.seed, preset=self.config.preset,
                initial_layout=untiled,
            )
        return self._tiled[n_tiles]


class ExperimentSuite:
    """Caches design contexts across drivers within one run."""

    def __init__(self, config: ExperimentConfig | None = None) -> None:
        self.config = config or ExperimentConfig()
        self._contexts: dict[str, _DesignContext] = {}

    def context(self, name: str) -> _DesignContext:
        if name not in self._contexts:
            self._contexts[name] = _DesignContext(name, self.config)
        return self._contexts[name]


# ----------------------------------------------------------------------
# Table 1
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Table1Row:
    design: str
    paper_clbs: int
    n_clbs: int
    area_overhead: float
    timing_overhead: float
    n_tiles: int
    inter_tile_nets: int


def run_table1(
    config: ExperimentConfig | None = None,
    suite: ExperimentSuite | None = None,
) -> list[Table1Row]:
    """Tiled physical layout statistics (paper Table 1)."""
    suite = suite or ExperimentSuite(config)
    rows = []
    for name in suite.config.designs:
        ctx = suite.context(name)
        untiled, _ = ctx.untiled()
        t_untiled = untiled.critical_path()
        tiled = ctx.tiled(suite.config.n_tiles)
        t_tiled = tiled.layout.critical_path()
        stats = tiled.stats()
        rows.append(
            Table1Row(
                design=name,
                paper_clbs=ctx.bundle.paper_clbs,
                n_clbs=ctx.bundle.n_clbs,
                area_overhead=stats.area_overhead,
                timing_overhead=(t_tiled - t_untiled) / t_untiled,
                n_tiles=stats.n_tiles,
                inter_tile_nets=stats.inter_tile_nets,
            )
        )
    return rows


# ----------------------------------------------------------------------
# Figure 3
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Figure3Series:
    design: str
    logic_sizes: tuple[int, ...]
    pct_affected: tuple[float, ...]  # averaged over start tiles


def run_figure3(
    config: ExperimentConfig | None = None,
    suite: ExperimentSuite | None = None,
    logic_sizes: tuple[int, ...] = LOGIC_SIZES,
) -> list[Figure3Series]:
    """% of tiles affected vs size of introduced logic (paper Fig. 3).

    For each logic size the affected-tile count is averaged over every
    possible start tile (the paper does not fix the insertion point).
    Sizes beyond the design's total slack saturate at 100 %.
    """
    suite = suite or ExperimentSuite(config)
    series = []
    for name in suite.config.designs:
        ctx = suite.context(name)
        tiled = ctx.tiled(suite.config.n_tiles)
        n_tiles = len(tiled.tiles)
        pct = []
        for size in logic_sizes:
            counts = []
            for start in range(n_tiles):
                try:
                    affected = tiled.affected_tiles_for_logic(size, start)
                    counts.append(len(affected))
                except TilingError:
                    counts.append(n_tiles)  # saturated: everything affected
            pct.append(100.0 * statistics.mean(counts) / n_tiles)
        series.append(Figure3Series(name, tuple(logic_sizes), tuple(pct)))
    return series


# ----------------------------------------------------------------------
# Figure 4
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Figure4Series:
    design: str
    test_points: tuple[int, ...]
    max_logic: tuple[int, ...]


def run_figure4(
    config: ExperimentConfig | None = None,
    suite: ExperimentSuite | None = None,
    test_points: tuple[int, ...] = TEST_POINTS,
) -> list[Figure4Series]:
    """Maximum per-point test logic vs number of test points (Fig. 4)."""
    suite = suite or ExperimentSuite(config)
    series = []
    for name in suite.config.designs:
        ctx = suite.context(name)
        tiled = ctx.tiled(suite.config.n_tiles)
        budget = [tiled.max_logic_for_test_points(p) for p in test_points]
        series.append(Figure4Series(name, tuple(test_points), tuple(budget)))
    return series


# ----------------------------------------------------------------------
# Figure 5
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Figure5Row:
    design: str
    tile_fraction: float
    feasible: bool
    tiled_work: float
    quick_eco_work: float
    incremental_work: float
    speedup_vs_quick_eco: float
    speedup_vs_incremental: float
    tiled_seconds: float
    quick_eco_seconds: float


def run_figure5(
    config: ExperimentConfig | None = None,
    suite: ExperimentSuite | None = None,
    tile_fractions: tuple[float, ...] = FIG5_TILE_FRACTIONS,
) -> list[Figure5Row]:
    """Place-and-route speedup vs tile size (paper Fig. 5).

    The measured change is a small functional alteration (an injected
    LUT error plus its correction) confined to one tile.  The same
    change is pushed through three back ends:

    * tiled (tile-confined re-P&R at the given tile fraction),
    * Quick_ECO (re-P&R of the whole functional block = whole design),
    * incremental (window rip-up around the change).

    Designs whose tiles would fall below the minimum side at a fraction
    are reported infeasible — in the paper only the three largest
    designs support 2.5 % tiles.
    """
    suite = suite or ExperimentSuite(config)
    config = suite.config
    rows: list[Figure5Row] = []
    for name in config.designs:
        ctx = suite.context(name)
        packed = ctx.bundle.packed
        device = ctx.device

        # baselines are independent of tile size: measure once
        qe_meter = EffortMeter()
        full_place_and_route(
            packed, device, seed=derive_seed(config.seed, name, "qe"),
            preset=config.preset, meter=qe_meter, strict_routing=False,
        )
        untiled, _ = ctx.untiled()
        inc_meter = EffortMeter()
        inc_layout = untiled.copy()
        target = _pick_change_instance(ctx)
        target_block = packed.block_of_instance[target]
        incremental_update(
            inc_layout, {target_block},
            seed=derive_seed(config.seed, name, "inc"),
            preset=config.preset, meter=inc_meter,
        )

        for fraction in tile_fractions:
            n_tiles = max(1, round(1.0 / fraction))
            try:
                tiled = ctx.tiled(n_tiles)
            except TilingError:
                rows.append(Figure5Row(
                    design=name, tile_fraction=fraction, feasible=False,
                    tiled_work=float("nan"), quick_eco_work=qe_meter.work_units,
                    incremental_work=inc_meter.work_units,
                    speedup_vs_quick_eco=float("nan"),
                    speedup_vs_incremental=float("nan"),
                    tiled_seconds=float("nan"),
                    quick_eco_seconds=qe_meter.wall_seconds,
                ))
                continue
            effort = _measure_single_tile_change(
                ctx, tiled, target, derive_seed(config.seed, name, fraction)
            )
            rows.append(Figure5Row(
                design=name, tile_fraction=fraction, feasible=True,
                tiled_work=effort.work_units,
                quick_eco_work=qe_meter.work_units,
                incremental_work=inc_meter.work_units,
                speedup_vs_quick_eco=qe_meter.work_units / effort.work_units,
                speedup_vs_incremental=inc_meter.work_units / effort.work_units,
                tiled_seconds=effort.wall_seconds,
                quick_eco_seconds=qe_meter.wall_seconds,
            ))
    return rows


def _pick_change_instance(ctx: _DesignContext) -> str:
    """A deterministic mid-netlist LUT to retable (the 'small change')."""
    luts = sorted(
        i.name for i in ctx.bundle.mapped.instances()
        if i.kind is CellKind.LUT and i.inputs
    )
    return luts[len(luts) // 2]


def _measure_single_tile_change(
    ctx: _DesignContext, tiled: TiledLayout, target: str, seed: int
) -> EffortMeter:
    """Retable one LUT and commit; the effort of that commit."""
    netlist = ctx.bundle.mapped
    inst = netlist.instance(target)
    size = 1 << len(inst.inputs)
    netlist.set_params(inst, {"table": inst.params["table"] ^ (size - 1)})
    report = tiled.apply_changeset(
        "fig5 small change", seed=seed, preset=ctx.config.preset,
        anchor_instance=target,
    )
    return report.effort


def fig5_aggregate(rows: list[Figure5Row]) -> dict[float, dict[str, float]]:
    """Mean/median speedups per tile fraction (the paper's summary)."""
    summary: dict[float, dict[str, float]] = {}
    for fraction in sorted({r.tile_fraction for r in rows}):
        values = [
            r.speedup_vs_quick_eco
            for r in rows
            if r.tile_fraction == fraction and r.feasible
        ]
        if not values:
            continue
        summary[fraction] = {
            "mean": statistics.mean(values),
            "median": statistics.median(values),
            "n_designs": float(len(values)),
        }
    return summary


# ----------------------------------------------------------------------
# ablations
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SlackAblationRow:
    design: str
    area_overhead: float
    logic_size: int
    pct_affected: float


def run_ablation_slack(
    design: str = "s9234",
    overheads: tuple[float, ...] = (0.10, 0.20, 0.30),
    logic_sizes: tuple[int, ...] = LOGIC_SIZES,
    seed: int = 1,
    preset: EffortPreset | None = None,
) -> list[SlackAblationRow]:
    """Figure-3 staircases under different slack budgets (ablation A)."""
    preset = preset or EFFORT_PRESETS["fast"]
    rows = []
    for overhead in overheads:
        config = ExperimentConfig(
            designs=[design], seed=seed, preset=preset,
            area_overhead=overhead,
        )
        suite = ExperimentSuite(config)
        series = run_figure3(suite=suite, logic_sizes=logic_sizes)[0]
        for size, pct in zip(series.logic_sizes, series.pct_affected):
            rows.append(SlackAblationRow(design, overhead, size, pct))
    return rows


@dataclass(frozen=True)
class BoundaryAblationRow:
    design: str
    refined: bool
    inter_tile_nets: int
    timing_ns: float


def run_ablation_boundaries(
    designs: list[str] | None = None,
    seed: int = 1,
    preset: EffortPreset | None = None,
    n_tiles: int = 10,
) -> list[BoundaryAblationRow]:
    """Uniform vs min-cut-refined boundaries (ablation B)."""
    preset = preset or EFFORT_PRESETS["fast"]
    designs = designs or ["styr", "s9234"]
    rows = []
    for name in designs:
        for refined in (False, True):
            config = ExperimentConfig(designs=[name], seed=seed, preset=preset)
            suite = ExperimentSuite(config)
            ctx = suite.context(name)
            untiled, _ = ctx.untiled()
            options = TilingOptions(
                n_tiles=n_tiles,
                area_overhead=config.area_overhead,
                refine_passes=2 if refined else 0,
            )
            tiled = TiledLayout.create(
                ctx.bundle.packed, ctx.device, options,
                seed=seed, preset=preset, initial_layout=untiled,
            )
            stats = tiled.stats()
            rows.append(
                BoundaryAblationRow(
                    name, refined, stats.inter_tile_nets,
                    tiled.layout.critical_path(),
                )
            )
    return rows

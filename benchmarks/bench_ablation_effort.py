"""Ablation C: effort-model decomposition.

Breaks one tiled commit and one Quick_ECO commit into their components
(fixed invocation overhead / placer moves / router expansions) so the
calibration of INVOCATION_OVERHEAD_UNITS is transparent.
"""

from repro.analysis.experiments import (
    _measure_single_tile_change,
    _pick_change_instance,
)
from repro.pnr.effort import (
    EffortMeter,
    INVOCATION_OVERHEAD_UNITS,
    ROUTE_EXPANSION_WEIGHT,
)
from repro.pnr.flow import full_place_and_route
from benchmarks.conftest import bench_designs


def test_ablation_effort(benchmark, suite):
    designs = [d for d in bench_designs() if d in ("styr", "s9234", "des")]
    designs = designs or bench_designs()[:1]

    def run():
        results = []
        for name in designs:
            ctx = suite.context(name)
            tiled = ctx.tiled(10)
            target = _pick_change_instance(ctx)
            tile_meter = _measure_single_tile_change(ctx, tiled, target, seed=77)
            qe_meter = EffortMeter()
            full_place_and_route(
                ctx.bundle.packed, ctx.device, seed=78,
                preset=suite.config.preset, meter=qe_meter,
                strict_routing=False,
            )
            results.append((name, tile_meter, qe_meter))
        return results

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    print("\n== Ablation C: effort decomposition (work units) ==")
    print(
        f"{'design':<8} {'kind':<10} {'overhead':>9} {'placer':>9} "
        f"{'router':>9} {'total':>10}"
    )
    for name, tile_meter, qe_meter in results:
        for kind, meter in (("tiled", tile_meter), ("quick_eco", qe_meter)):
            print(
                f"{name:<8} {kind:<10} "
                f"{INVOCATION_OVERHEAD_UNITS * meter.invocations:>9.0f} "
                f"{meter.place_moves:>9} "
                f"{ROUTE_EXPANSION_WEIGHT * meter.route_expansions:>9.0f} "
                f"{meter.work_units:>10.0f}"
            )
        assert tile_meter.work_units < qe_meter.work_units

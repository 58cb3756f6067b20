"""Ablation B: uniform vs min-cut-refined tile boundaries.

The paper requires "inter-tile interconnect is minimized"; this bench
quantifies what the KL-style refinement pass buys over purely geometric
boundaries.
"""

from repro.analysis.experiments import run_ablation_boundaries
from benchmarks.conftest import bench_designs, bench_preset


def test_ablation_boundaries(benchmark):
    designs = [d for d in bench_designs() if d in ("styr", "c880", "s9234")]
    designs = designs or ["styr"]
    rows = benchmark.pedantic(
        lambda: run_ablation_boundaries(designs=designs, preset=bench_preset()),
        rounds=1, iterations=1,
    )
    print("\n== Ablation B: boundary refinement vs inter-tile cut ==")
    print(f"{'design':<10} {'refined':>8} {'cut nets':>9} {'timing ns':>10}")
    for r in rows:
        print(
            f"{r.design:<10} {str(r.refined):>8} {r.inter_tile_nets:>9} "
            f"{r.timing_ns:>10.1f}"
        )
    by_design: dict[str, dict[bool, int]] = {}
    for r in rows:
        by_design.setdefault(r.design, {})[r.refined] = r.inter_tile_nets
    for design, cuts in by_design.items():
        assert cuts[True] <= cuts[False], f"{design}: refinement regressed"

"""Experiment drivers reproduce the paper's qualitative shapes (small cfg)."""

import dataclasses

import pytest

from repro.analysis import (
    ExperimentConfig,
    format_figure3,
    format_figure4,
    format_figure5,
    format_table1,
    run_figure3,
    run_figure4,
    run_figure5,
    run_table1,
)
from repro.analysis.experiments import (
    ExperimentSuite,
    fig5_aggregate,
    run_ablation_boundaries,
    run_ablation_slack,
)


@pytest.fixture(scope="module")
def suite():
    return ExperimentSuite(ExperimentConfig(designs=["9sym", "styr"]))


def test_table1_shape(suite):
    rows = run_table1(suite=suite)
    assert len(rows) == 2
    for row in rows:
        # paper: ~20% requested slack lands between 0.19 and 0.30 after
        # tile quantization
        assert 0.15 <= row.area_overhead <= 0.35
        assert abs(row.timing_overhead) < 0.6
        assert row.n_tiles == 10
    text = format_table1(rows)
    assert "9sym" in text and "styr" in text


def test_figure3_staircase_properties(suite):
    series = run_figure3(suite=suite)
    for s in series:
        # monotone non-decreasing, starts near one tile (10%), ends at 100%
        assert all(
            b >= a - 1e-9 for a, b in zip(s.pct_affected, s.pct_affected[1:])
        )
        assert s.pct_affected[0] <= 25.0
        assert s.pct_affected[-1] == 100.0
    assert "%" in format_figure3(series)


def test_figure4_decay_properties(suite):
    series = run_figure4(suite=suite)
    for s in series:
        assert all(
            b <= a for a, b in zip(s.max_logic, s.max_logic[1:])
        )
        assert s.max_logic[0] >= 1
    assert "test points" in format_figure4(series)


def test_figure5_speedups(suite):
    rows = run_figure5(suite=suite, tile_fractions=(0.10, 0.25))
    feasible = [r for r in rows if r.feasible]
    assert feasible, "at least one design/fraction must be feasible"
    for r in feasible:
        assert r.speedup_vs_quick_eco > 1.0  # tiling must win
    # finer tiles never slower than the coarsest for the same design
    by_design = {}
    for r in feasible:
        by_design.setdefault(r.design, {})[r.tile_fraction] = r
    for design, by_frac in by_design.items():
        if 0.10 in by_frac and 0.25 in by_frac:
            assert (
                by_frac[0.10].speedup_vs_quick_eco
                >= 0.7 * by_frac[0.25].speedup_vs_quick_eco
            )
    agg = fig5_aggregate(rows)
    assert all("mean" in v and "median" in v for v in agg.values())
    assert "tile size" in format_figure5(rows)


def test_figure5_is_history_free():
    """A second call in one process measures its commits afresh.

    Each call builds its own suite, so nothing it reports may depend on
    an earlier call: no stored configuration replays the commit the
    figure is timing.
    """

    def measure():
        rows = run_figure5(
            ExperimentConfig(designs=["9sym", "styr"]),
            tile_fractions=(0.10, 0.25),
        )
        return [
            {k: v for k, v in dataclasses.asdict(r).items()
             if not k.endswith("_seconds")}
            for r in rows
        ]

    assert measure() == measure()


def test_infeasible_fractions_reported(suite):
    rows = run_figure5(suite=suite, tile_fractions=(0.025,))
    small = [r for r in rows if r.design == "9sym"]
    assert small and not small[0].feasible  # 9sym cannot do 2.5% tiles


def test_ablation_slack_monotone():
    rows = run_ablation_slack(
        design="styr", overheads=(0.15, 0.30), logic_sizes=(1, 10, 19)
    )
    # more slack -> fewer (or equal) tiles affected at the same size
    by_size = {}
    for r in rows:
        by_size.setdefault(r.logic_size, {})[r.area_overhead] = r.pct_affected
    for size, results in by_size.items():
        assert results[0.30] <= results[0.15] + 1e-9


def test_ablation_boundaries_reduces_cut():
    rows = run_ablation_boundaries(designs=["styr"])
    uniform = next(r for r in rows if not r.refined)
    refined = next(r for r in rows if r.refined)
    assert refined.inter_tile_nets <= uniform.inter_tile_nets

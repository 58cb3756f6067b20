"""Ablation A: slack budget vs Figure-3 staircases.

More slack per tile means fewer tiles are pulled into a change of the
same size — the quantitative justification for the paper's 20 % default
("as little as 10 % ... would not allow enough room").
"""

from repro.analysis.experiments import run_ablation_slack
from benchmarks.conftest import bench_preset


def test_ablation_slack(benchmark):
    rows = benchmark.pedantic(
        lambda: run_ablation_slack(
            design="s9234", overheads=(0.10, 0.20, 0.30),
            preset=bench_preset(),
        ),
        rounds=1, iterations=1,
    )
    print("\n== Ablation A: slack budget vs affected tiles (s9234) ==")
    by_overhead: dict[float, list] = {}
    for r in rows:
        by_overhead.setdefault(r.area_overhead, []).append(r)
    for overhead, series in sorted(by_overhead.items()):
        series.sort(key=lambda r: r.logic_size)
        cells = "".join(f"{r.pct_affected:>6.0f}%" for r in series)
        print(f"  slack {overhead * 100:3.0f}%: {cells}")

    # more slack -> no more tiles affected at any size
    sizes = sorted({r.logic_size for r in rows})
    table = {(r.area_overhead, r.logic_size): r.pct_affected for r in rows}
    for size in sizes:
        assert table[(0.30, size)] <= table[(0.10, size)] + 1e-9

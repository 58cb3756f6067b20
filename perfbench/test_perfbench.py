"""Smoke tests of the benchmark on tiny run pools (9sym only)."""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
for _path in (str(ROOT / "src"), str(ROOT)):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from perfbench import checks, layers, speed  # noqa: E402
from perfbench.run import END_TO_END, PER_LAYER, Bench  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

#: one tiny pool per workload shape
SMOKE_POOLS = {
    "cold_new_bug": (("9sym", 1), ("9sym", 2)),
    "campaign_sweep": (("9sym", 1), ("9sym", 2), ("9sym", 3)),
    "warm_rerun": (("9sym", 1),),
    "multi_fault": (("9sym", 6),),
}


def smoke(name: str):
    return dataclasses.replace(WORKLOADS[name], pool=SMOKE_POOLS[name],
                               layers=(), accuracy_baseline=())


def benchmark_json() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def test_benchmark_json_matches_the_emitted_metrics():
    spec = benchmark_json()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"])
            for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: (m["unit"], m["better"])
            for m in spec["per_layer"]} == PER_LAYER


@pytest.mark.parametrize("name", sorted(SMOKE_POOLS))
def test_every_metric_is_emitted_and_checked(name, tmp_path):
    workload = smoke(name)
    line, problems = Bench(workload, seed=3, seconds=0.1,
                           out_dir=tmp_path).run(trace=False)
    assert problems == [] and line["correct"]
    assert line["attempted"] == len(workload.pool)
    assert {k: v["unit"] for k, v in line["metrics"].items()} == {
        k: unit for k, (unit, _) in END_TO_END.items()}
    assert all(v["value"] > 0 for v in line["metrics"].values())
    detail = json.loads((tmp_path / f"{name}-s3-t0.json").read_text())
    assert detail["run_n"] == len(workload.pool) * detail["passes"]

    line, problems = Bench(workload, seed=3, seconds=0.1,
                           out_dir=tmp_path).run(trace=True)
    assert problems == [] and line["correct"]
    assert {k: v["unit"] for k, v in line["metrics"].items()} == {
        k: unit for k, (unit, _) in PER_LAYER.items()}
    detail = json.loads((tmp_path / f"{name}-s3-t1.json").read_text())
    assert detail["layer_self_times"]["localize"]["calls"] > 0
    trace = json.loads(Path(detail["trace_file"]).read_text())
    assert any(e["name"] == "run" for e in trace["traceEvents"])


def test_traced_pass_enters_the_workload_layers(tmp_path):
    workload = dataclasses.replace(WORKLOADS["multi_fault"],
                                   pool=SMOKE_POOLS["multi_fault"])
    _, problems = Bench(workload, seed=1, seconds=0.1,
                        out_dir=tmp_path).run(trace=True)
    assert problems == []
    required = dataclasses.replace(workload, layers=("pnr.replay",))
    _, problems = Bench(required, seed=1, seconds=0.1,
                        out_dir=tmp_path).run(trace=True)
    assert problems == ["traced pass never entered layer pnr.replay"]


def test_missing_target_fails_loudly():
    from repro.obs.trace import Tracer

    gone = (("pnr.place", "repro.pnr.flow", "place_design_v0"),)
    with pytest.raises(layers.LayerTargetMissing, match="place_design_v0"):
        with layers.instrumented(Tracer(), targets=gone):
            pass
    inherited = (("commit", "repro.debug.strategies",
                  "SatTiledStrategy.commit"),)
    with pytest.raises(layers.LayerTargetMissing):
        with layers.instrumented(Tracer(), targets=inherited):
            pass


def test_wrappers_are_removed_after_the_traced_pass():
    import repro.pnr.flow as flow
    from repro.obs.trace import Tracer

    original = flow.place_design
    with layers.instrumented(Tracer()):
        assert flow.place_design is not original
    assert flow.place_design is original


def test_outcome_checks_do_not_trust_the_tool():
    from repro.api import RunSpec
    from repro.api.pipeline import run_spec

    spec = RunSpec(design="9sym", preset="fast", error_seed=1,
                   cache="off")
    result, ctx = run_spec(spec, return_context=True)
    assert result.fixed and result.localized
    assert checks.replay_matches_golden(ctx.packed.netlist, ctx.golden,
                                        spec)
    assert checks.outcome_problems(result, True) == []

    lying = dataclasses.replace(result, localized=False)
    assert checks.outcome_problems(lying, True)
    assert checks.outcome_problems(result, False)

    # a netlist that still carries an injected error fails the replay
    from repro.debug.errors import inject_errors

    broken = ctx.golden.copy("broken")
    inject_errors(broken, ["table_bit"], seed=1, n_errors=1)
    assert not checks.replay_matches_golden(broken, ctx.golden, spec)


def test_reference_seconds_scale_by_the_sampled_speed():
    samples = speed.Samples()
    # a sample every 0.1 s, each taking 0.01 s of the CPU; half speed
    # for the first second, full speed after
    for i in range(20):
        samples.starts.append(i / 10)
        samples.ends.append(i / 10 + 0.01)
        samples.speeds.append(0.5 if i < 10 else 1.0)
    assert samples.seconds(1.0, 1.95) == pytest.approx(0.95 - 0.1)
    assert samples.seconds(0.0, 0.95) == pytest.approx(
        (0.95 - 0.1) * 0.5 ** speed.FOLLOW)
    # a short interval borrows its neighbours' speeds
    assert samples.speed(0.92, 0.93) == pytest.approx(
        (4 * 0.5 + 4 * 1.0) / 8)


def test_parity_ignores_measured_fields_only():
    from repro.api.result import RunResult

    base = RunResult(design="9sym", spec={"error_seed": 1},
                     timings={"stages": {"detect": 1.0}},
                     proof={"proved": True, "build_seconds": 0.1})
    timed_again = dataclasses.replace(
        base, timings={"stages": {"detect": 2.0}},
        proof={"proved": True, "build_seconds": 0.3}, wall_seconds=9.0)
    assert checks.parity_problems([base], [timed_again]) == []
    other = dataclasses.replace(base, candidates=["u1"])
    assert checks.parity_problems([base], [other])

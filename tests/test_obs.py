"""Observability: span tracing, the metrics registry, profiling.

The layer's contract has two halves.  Armed, a tracer must see every
structural event of a run — stages, diagnose rounds, probes, commits —
nested correctly even when a stage dies or a cooperative deadline
trips mid-flight.  Disarmed (the default), nothing may change: the
pipeline's answers are bit-identical with and without observation, and
metrics accounting must agree across execution topologies (in-process
threads vs. supervised worker processes vs. the service daemon).
"""

import json
import re

from repro.api.campaign import CampaignRunner, expand_matrix
from repro.api.cli import main as cli_main
from repro.api.pipeline import PipelineHooks, run_spec
from repro.api.spec import RunSpec
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    METRICS,
    Histogram,
    MetricsRegistry,
)
from repro.obs.trace import Tracer, render_chrome_tree, render_span_tree

#: the cheapest spec that excites, localizes, and fixes a bug
FAST = dict(design="9sym", preset="fast", max_probes=6, cache="off",
            error_seed=1)
#: known two-round, two-error configuration (see test_multi_error)
TWO_ROUND = dict(design="9sym", preset="fast", max_probes=6,
                 cache="private", error_seed=6, n_errors=2)

#: one Prometheus sample line: name{labels} value
_PROM_SAMPLE = re.compile(
    r'^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_]+="[^"]*"'
    r'(,[a-zA-Z_]+="[^"]*")*\})? -?[0-9.+eEinf]+$'
)


def _index(root):
    """Flatten a span tree into name -> [spans]."""
    out = {}

    def walk(span):
        out.setdefault(span.name, []).append(span)
        for child in span.children:
            walk(child)

    walk(root)
    return out


def _counters(delta: dict) -> dict:
    return {
        (c["name"], tuple(sorted(c["labels"].items()))): c["value"]
        for c in delta["counters"]
    }


# ----------------------------------------------------------------------
# tracing: nesting, exception/timeout closure, export
# ----------------------------------------------------------------------

def test_spans_nest_across_diagnose_rounds():
    tracer = Tracer()
    result = run_spec(RunSpec(**TWO_ROUND), tracer=tracer)
    assert result.fixed and result.n_rounds == 2

    [run] = tracer.roots
    assert run.name == "run" and run.status == "ok"
    assert run.attrs["rounds"] == 2
    top = [c.name for c in run.children]
    assert top.count("detect") >= 1  # re-detect after round 1's fix
    assert "diagnose" in top and "verify" in top

    diagnose = next(c for c in run.children if c.name == "diagnose")
    rounds = [c for c in diagnose.children if c.name == "round"]
    assert [r.attrs["round"] for r in rounds] == [1, 2]
    for round_span in rounds:
        names = [c.name for c in round_span.children]
        assert "localize" in names and "correct" in names

    # probes nest under localize, one span per trajectory step, with
    # the candidate-narrowing attrs recorded where the work happened
    spans = _index(run)
    probes = spans["probe"]
    assert len(probes) == result.n_probes
    assert all("mismatch" in p.attrs and "candidates_after" in p.attrs
               for p in probes)
    # commits appear as instants; every span closed
    assert len(spans["commit"]) == result.n_commits
    assert all(s.end_ns is not None
               for group in spans.values() for s in group)

    tree = render_span_tree(tracer)
    assert tree.startswith("run [ok]")
    assert tree.count("round [ok]") == 2


def test_stage_exception_closes_spans_with_error_status():
    tracer = Tracer()
    spec = RunSpec(**FAST, chaos={"kind": "exception",
                                  "stage": "localize"})
    result = run_spec(spec, tracer=tracer)
    assert result.status == "failed"
    [run] = tracer.roots
    assert run.status == "error"
    spans = _index(run)
    [localize] = spans["localize"]
    assert localize.status == "error"
    # the stage that completed before the blast keeps its ok status
    assert spans["detect"][0].status == "ok"
    assert all(s.end_ns is not None
               for group in spans.values() for s in group)


def test_cooperative_timeout_closes_spans_with_timeout_status():
    tracer = Tracer()
    spec = RunSpec(**FAST, timeout_s=0.5,
                   chaos={"kind": "hang", "stage": "localize",
                          "hang_s": 30.0})
    result = run_spec(spec, tracer=tracer)
    assert result.status == "timeout"
    [run] = tracer.roots
    assert run.status == "timeout"
    spans = _index(run)
    assert spans["localize"][0].status == "timeout"
    assert spans["detect"][0].status == "ok"
    assert all(s.end_ns is not None
               for group in spans.values() for s in group)


def test_tracing_never_changes_the_answer():
    plain = run_spec(RunSpec(**FAST))
    traced = run_spec(RunSpec(**FAST), tracer=Tracer(), profile=True)
    assert plain.trajectory_key() == traced.trajectory_key()
    assert plain.candidates == traced.candidates
    assert plain.status == traced.status == "ok"
    assert plain.profile is None and traced.profile is not None


def test_chrome_trace_export_shape_and_tree_rebuild(tmp_path):
    tracer = Tracer()
    result = run_spec(RunSpec(**FAST), tracer=tracer)
    assert result.status == "ok"
    path = tmp_path / "trace.json"
    tracer.write_chrome_trace(str(path))
    trace = json.loads(path.read_text())
    assert set(trace) == {"traceEvents", "displayTimeUnit", "otherData"}
    events = trace["traceEvents"]
    assert events, "trace must not be empty"
    for event in events:
        assert event["ph"] == "X"
        assert event["ts"] >= 0 and event["dur"] >= 0
        assert isinstance(event["pid"], int)
        assert "status" in event["args"]
    names = {e["name"] for e in events}
    assert {"run", "detect", "diagnose", "round", "localize",
            "probe", "commit", "verify"} <= names
    # the tree rebuilt from ts/dur containment matches the live render
    assert render_chrome_tree(trace) == render_span_tree(tracer)


def test_profile_lands_per_stage_top_functions():
    result = run_spec(RunSpec(**FAST), profile=True)
    profile = result.profile
    assert profile["profiler"] == "cProfile"
    assert {"detect", "localize", "correct", "verify"} <= set(
        profile["stages"]
    )
    for rows in profile["stages"].values():
        for row in rows:
            assert set(row) == {"func", "ncalls", "tottime_s",
                                "cumtime_s"}
    # profile survives the JSON round-trip like every result field
    from repro.api.result import RunResult

    again = RunResult.from_dict(json.loads(json.dumps(result.to_dict())))
    assert again.profile == profile


def test_profile_covers_the_diagnose_loop_but_hooks_do_not():
    # every stage boundary opens a profile scope, the composite loop's
    # included; the hooks and stage timings see only the paper's stages
    seen = []

    class Recorder(PipelineHooks):
        def on_stage_start(self, stage, ctx):
            seen.append(("start", stage.name))

        def on_stage_end(self, stage, ctx, seconds):
            seen.append(("end", stage.name))

    spec = RunSpec(**TWO_ROUND, strategy="sat", correction="cegis",
                   verify="prove")
    result = run_spec(spec, hooks=Recorder(), profile=True)
    assert result.status == "ok" and result.n_rounds == 2
    assert set(result.profile["stages"]) == {
        "detect", "diagnose", "localize", "correct", "verify"
    }
    assert result.profile["stages"]["diagnose"], "loop work was profiled"
    walk = ["detect", "localize", "correct", "localize", "correct",
            "verify"]
    assert seen == [(phase, name) for name in walk
                    for phase in ("start", "end")]
    assert set(result.timings["stages"]) == set(walk)


# ----------------------------------------------------------------------
# metrics registry: snapshot / merge / delta / exposition
# ----------------------------------------------------------------------

def test_registry_snapshot_merge_and_delta_semantics():
    a = MetricsRegistry()
    a.inc("runs", status="ok")
    a.inc("runs", status="ok")
    a.inc("probes", value=5.0)
    a.set_gauge("depth", 3)
    a.observe("lat", 0.002, stage="detect")
    a.observe("lat", 0.2, stage="detect")

    before = a.snapshot()
    a.inc("runs", status="failed")
    a.inc("probes", value=2.0)
    a.set_gauge("depth", 1)
    a.observe("lat", 5.0, stage="detect")
    delta = a.delta(before)
    # only what changed, counters as differences, gauges current
    assert _counters(delta) == {
        ("runs", (("status", "failed"),)): 1.0,
        ("probes", ()): 2.0,
    }
    [gauge] = delta["gauges"]
    assert gauge["value"] == 1.0
    [hist] = delta["histograms"]
    assert hist["count"] == 1 and hist["samples"] == [5.0]

    b = MetricsRegistry()
    b.inc("runs", status="ok")
    b.observe("lat", 0.004, stage="detect")
    b.merge(a.snapshot())
    assert b.counter_value("runs", status="ok") == 3.0
    assert b.counter_value("runs") == 4.0  # subset match sums statuses
    assert b.gauge_value("depth") == 1.0
    merged = b.histogram("lat", stage="detect")
    assert merged.count == 4
    assert merged.min == 0.002 and merged.max == 5.0
    # a merged delta adds exactly the delta, not the donor's history
    c = MetricsRegistry()
    c.merge(delta)
    assert c.counter_value("probes") == 2.0
    assert c.histogram("lat", stage="detect").count == 1


def test_histogram_quantiles_and_bucket_assignment():
    hist = Histogram()
    for ms in range(1, 101):
        hist.observe(ms / 1000.0)
    assert hist.count == 100
    # nearest-rank over the retained samples
    assert hist.quantile(0.5) in (0.05, 0.051)
    assert hist.quantile(0.95) in (0.095, 0.096)
    assert hist.max == 0.1
    assert sum(hist.buckets) == hist.count


def test_prometheus_exposition_parses_and_buckets_are_cumulative():
    reg = MetricsRegistry()
    reg.inc("repro_runs_total", status="ok", value=3)
    reg.inc("repro_runs_total", status="we ird\n", value=1)
    reg.set_gauge("repro_queue_depth", 2)
    for value in (0.002, 0.002, 0.3, 7.0):
        reg.observe("repro_stage_seconds", value, stage="detect")
    text = reg.to_prometheus()
    types = {}
    for line in text.strip().splitlines():
        if line.startswith("# TYPE "):
            _, _, name, kind = line.split(" ")
            types[name] = kind
            continue
        assert _PROM_SAMPLE.match(line), line
    assert types == {
        "repro_runs_total": "counter",
        "repro_queue_depth": "gauge",
        "repro_stage_seconds": "histogram",
    }
    # bucket counts are cumulative and end at +Inf == _count
    buckets = [
        float(line.rsplit(" ", 1)[1])
        for line in text.splitlines()
        if line.startswith("repro_stage_seconds_bucket")
    ]
    assert len(buckets) == len(DEFAULT_BUCKETS) + 1
    assert buckets == sorted(buckets)
    assert buckets[-1] == 4
    assert 'le="+Inf"' in text
    assert "\\n" in text  # newline in a label value stays escaped
    assert "repro_stage_seconds_sum" in text
    assert "repro_stage_seconds_count" in text


def test_pipeline_records_run_probe_and_stage_metrics():
    before = METRICS.snapshot()
    result = run_spec(RunSpec(**FAST))
    assert result.status == "ok"
    delta = _counters(METRICS.delta(before))
    assert delta[("repro_runs_total", (("status", "ok"),))] == 1.0
    assert delta[("repro_probes_total", ())] == result.n_probes
    assert delta[("repro_rounds_total", ())] == result.n_rounds
    stage_hists = {
        tuple(sorted(h["labels"].items())): h["count"]
        for h in METRICS.delta(before)["histograms"]
        if h["name"] == "repro_stage_seconds"
    }
    assert stage_hists[(("stage", "detect"),)] >= 1


def test_process_campaign_metrics_merge_equals_thread_mode():
    """Sum of per-worker snapshots == in-process accounting.

    The same matrix runs bit-identically under both executors, so
    every deterministic counter the children ship back (runs, probes,
    rounds, solver work) must merge to exactly what the thread
    executor records in-process.  The counters of the thread
    campaign's design memo differ by exactly its predicted effect: it
    builds each design, and lowers its golden kernel, once.
    """
    specs = expand_matrix(RunSpec(**FAST), error_seeds=[1, 2])
    runs, designs = len(specs), 1

    before = METRICS.snapshot()
    thread_campaign = CampaignRunner(executor="thread").run(specs)
    thread_counts = _counters(METRICS.delta(before))

    before = METRICS.snapshot()
    process_campaign = CampaignRunner(executor="process").run(specs)
    process_counts = _counters(METRICS.delta(before))

    assert thread_campaign.n_fixed == process_campaign.n_fixed >= 1
    # collector passes and their seconds are measured per process heap,
    # not work the runs did
    for counts in (thread_counts, process_counts):
        for key in [k for k in counts if k[0].startswith("repro_gc_")]:
            del counts[key]
    full_compiles = ("repro_kernel_compiles_total", (("kind", "full"),))
    memo = {("repro_warm_registry_hits_total", ()): runs - designs,
            ("repro_warm_registry_misses_total", ()): designs}
    assert {k: thread_counts.pop(k, 0) for k in memo} == memo
    assert not any(k in process_counts for k in memo)
    assert (thread_counts.pop(full_compiles)
            == process_counts.pop(full_compiles) - (runs - designs))
    assert process_counts == thread_counts
    assert process_counts[
        ("repro_runs_total", (("status", "ok"),))
    ] == 2.0  # both specs complete (fixed or not: status stays ok)
    assert process_counts[
        ("repro_campaign_runs_total", (("status", "ok"),))
    ] == 2.0
    # stage latency histograms shipped by the children merged too
    merged = METRICS.histogram("repro_stage_seconds", stage="detect")
    assert merged is not None and merged.count >= 4


# ----------------------------------------------------------------------
# CLI surface: run --trace/--profile, report --timings, trace report
# ----------------------------------------------------------------------

def test_cli_run_trace_profile_and_trace_report(tmp_path, capsys):
    trace_path = tmp_path / "trace.json"
    json_path = tmp_path / "result.json"
    rc = cli_main([
        "run", "--design", "9sym", "--preset", "fast",
        "--error-seed", "1", "--max-probes", "6",
        "--trace", str(trace_path), "--profile",
        "--json", str(json_path),
    ])
    assert rc == 0
    trace = json.loads(trace_path.read_text())
    assert trace["traceEvents"]
    assert "profile" in trace["otherData"]
    result = json.loads(json_path.read_text())
    assert result["profile"]["stages"]
    capsys.readouterr()

    rc = cli_main(["report", str(trace_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.startswith("run [ok]")
    assert "└─" in out and "stage profile" in out


def test_cli_report_timings_table(tmp_path, capsys):
    result = run_spec(RunSpec(**FAST))
    (tmp_path / "a.json").write_text(json.dumps(result.to_dict()))
    (tmp_path / "b.json").write_text(json.dumps(result.to_dict()))
    rc = cli_main(["report", str(tmp_path), "--timings"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "p50 s" in out and "p95 s" in out
    detect_row = next(line for line in out.splitlines()
                      if line.startswith("detect"))
    assert detect_row.split()[1] == "2"  # both files counted

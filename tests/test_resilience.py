"""Resilience substrate: failure isolation, budgets, degradation,
and the deterministic chaos harness — end to end through the facade.

The non-negotiable property: a spec with no budgets, no retries, and no
chaos runs the exact historical path (bit-identical trajectories), and
every injected infrastructure failure yields a *structured*
``failed``/``timeout``/``degraded`` result — never a crashed campaign.
"""

import json
import time

import pytest

from repro.api.campaign import CampaignResult, CampaignRunner, expand_matrix
from repro.api.pipeline import run_spec
from repro.api.result import RunResult
from repro.api.spec import RunSpec, SpecError
from repro.errors import ChaosError, DeadlineExceeded
from repro.obs.metrics import METRICS
from repro.resilience.budget import (
    Deadline,
    active_deadline,
    backoff_seconds,
    check_deadline,
    deadline_scope,
)
from repro.resilience.chaos import (
    ChaosConfig,
    ChaosFault,
    ChaosInjector,
    chaos_scope,
    corrupt_cache_file,
    replay_denied,
)
from repro.resilience.degrade import next_degraded
from repro.resilience.failure import RunFailure
from repro.tiling.cache import (
    TileConfigCache,
    cache_file_path,
    verify_cache_file,
)

FAST = dict(design="9sym", preset="fast", max_probes=6, cache="off")


# ----------------------------------------------------------------------
# RunFailure
# ----------------------------------------------------------------------

def test_run_failure_from_exception_and_round_trip():
    try:
        raise RuntimeError("x" * 600)
    except RuntimeError as exc:
        failure = RunFailure.from_exception(
            exc, stage="localize", elapsed_s=1.25, attempt=2
        )
    assert failure.stage == "localize"
    assert failure.error == "RuntimeError"
    assert failure.message.endswith("...")
    assert len(failure.message) == 503  # bounded + ellipsis
    assert len(failure.traceback_digest) == 12
    assert failure.attempt == 2
    assert not failure.chaos
    again = RunFailure.from_dict(json.loads(json.dumps(failure.to_dict())))
    assert again == failure
    with pytest.raises(ValueError, match="unknown failure fields"):
        RunFailure.from_dict({"stage": "x", "bogus": 1})


def test_run_failure_marks_chaos_and_deadline_stage():
    failure = RunFailure.from_exception(ChaosError("boom"), stage="detect")
    assert failure.chaos
    exc = DeadlineExceeded(where="sat.solve", label="run",
                           seconds=1.0, elapsed=1.5)
    failure = RunFailure.from_exception(exc)  # stage from exc.where
    assert failure.stage == "sat.solve"


# ----------------------------------------------------------------------
# budgets
# ----------------------------------------------------------------------

def test_deadline_checks_and_nesting():
    assert active_deadline() is None
    check_deadline("anywhere")  # no armed budget: free no-op
    outer = Deadline(60.0, label="run")
    inner = Deadline(0.001, label="stage:localize")
    with deadline_scope(outer):
        assert active_deadline() is outer
        with deadline_scope(inner):
            assert active_deadline() is inner  # tightest wins
            time.sleep(0.002)
            with pytest.raises(DeadlineExceeded) as err:
                check_deadline("probe")
            assert err.value.label == "stage:localize"
            assert err.value.where == "probe"
        check_deadline("after")  # inner popped; outer still has 60s
    assert active_deadline() is None


def test_deadline_rejects_bad_seconds():
    with pytest.raises(ValueError):
        Deadline(0)
    with pytest.raises(ValueError):
        Deadline(-1.0)


def test_backoff_is_seed_stable_and_bounded():
    assert backoff_seconds(1, seed=7, base=0.0) == 0.0  # default: no sleep
    a = [backoff_seconds(n, seed=7, base=0.1) for n in (1, 2, 3, 4, 5)]
    b = [backoff_seconds(n, seed=7, base=0.1) for n in (1, 2, 3, 4, 5)]
    assert a == b  # deterministic per (seed, attempt)
    assert all(0 < v <= 2.0 for v in a)  # capped
    assert backoff_seconds(1, seed=8, base=0.1) != a[0]


# ----------------------------------------------------------------------
# degradation ladder
# ----------------------------------------------------------------------

def test_ladder_prefers_stage_matched_rung():
    spec = RunSpec(strategy="sat", correction="cegis", engine="compiled")
    degraded, note = next_degraded(spec, "localize")
    assert (note["field"], note["to"]) == ("strategy", "tiled")
    assert degraded.strategy == "tiled"
    degraded, note = next_degraded(spec, "correct")
    assert (note["field"], note["to"]) == ("correction", "oracle")


def test_ladder_falls_back_in_order_and_bottoms_out():
    spec = RunSpec(strategy="tiled", correction="oracle",
                   engine="compiled", cache="shared")
    degraded, note = next_degraded(spec, "setup")
    assert (note["field"], note["to"]) == ("cache", "off")
    # no rung changes the engine: the engines are bit-identical, so a
    # retry on the other one recomputes the same outcome
    assert degraded.engine == "compiled"
    assert next_degraded(degraded, "verify") is None


# ----------------------------------------------------------------------
# chaos config
# ----------------------------------------------------------------------

def test_chaos_coerce_accepts_every_shorthand():
    bare = ChaosConfig.coerce({"kind": "exception", "stage": "detect"})
    as_list = ChaosConfig.coerce([{"kind": "exception", "stage": "detect"}])
    full = ChaosConfig.coerce(
        {"faults": [{"kind": "exception", "stage": "detect"}], "seed": 0}
    )
    assert bare == as_list == full
    assert ChaosConfig.coerce(None) is None
    assert ChaosConfig.coerce(full) is full


@pytest.mark.parametrize("bad", [
    "nope",
    {"faults": []},
    {"faults": [{"kind": "meteor"}]},
    {"faults": [{"kind": "hang", "stage": "nowhere"}]},
    {"faults": [{"kind": "hang", "hang_s": -1}]},
    {"faults": [{"kind": "exception", "probability": 2}]},
    {"faults": [{"kind": "exception", "match": {"planet": [1]}}]},
    {"faults": [{"kind": "exception", "match": {"seed": 3}}]},
    {"faults": [{"kind": "exception", "fires": 0}]},
    {"faults": [{"kind": "exception", "surprise": 1}]},
    {"faults": [{"kind": "exception"}], "seed": "x"},
    {"faults": [{"kind": "exception"}], "extra": 1},
])
def test_chaos_coerce_rejects_malformed(bad):
    with pytest.raises(SpecError):
        ChaosConfig.coerce(bad)


def test_chaos_selection_is_deterministic():
    cfg = ChaosConfig.coerce({
        "faults": [
            {"kind": "exception", "match": {"error_seed": [2]}},
            {"kind": "hang", "probability": 0.5},
        ],
        "seed": 11,
    })
    specs = [RunSpec(**FAST, error_seed=s) for s in (1, 2, 3)]
    picks = [tuple(f.kind for f in cfg.select(s)) for s in specs]
    assert picks == [tuple(f.kind for f in cfg.select(s)) for s in specs]
    assert all(
        ("exception" in p) == (s.error_seed == 2)
        for p, s in zip(picks, specs)
    )


def test_chaos_injector_fires_budget():
    fault = ChaosFault.from_dict({"kind": "exception", "stage": "localize"})
    injector = ChaosInjector([fault])
    injector.stage_event("detect")  # wrong stage: nothing
    with pytest.raises(ChaosError):
        injector.stage_event("localize")
    injector.stage_event("localize")  # fires=1 budget spent: clean
    assert injector.fired == [("localize", "exception")]


def test_replay_reject_denies_every_replay_through_the_injector():
    fault = ChaosFault.from_dict({"kind": "replay_reject"})
    injector = ChaosInjector([fault])
    assert not replay_denied()  # nothing armed: replays go ahead
    with chaos_scope(injector):
        # every replay is denied, whatever the fault's fires budget
        assert replay_denied() and replay_denied()
        injector.stage_event("localize")  # not a stage fault: inert
    assert not replay_denied()
    assert injector.denied == 2 and injector.fired == []
    idle = ChaosInjector([ChaosFault.from_dict({"kind": "exception"})])
    with chaos_scope(idle):
        assert not replay_denied()
    assert idle.denied == 0


def test_corrupt_cache_file_is_deterministic(tmp_path):
    path = str(tmp_path / "f.bin")
    assert not corrupt_cache_file(path, "cache_corrupt")  # missing: no-op
    blob = bytes(range(64))
    for kind in ("cache_truncate", "cache_corrupt"):
        damaged = []
        for _ in range(2):
            with open(path, "wb") as fh:
                fh.write(blob)
            assert corrupt_cache_file(path, kind, seed=5)
            with open(path, "rb") as fh:
                damaged.append(fh.read())
        assert damaged[0] == damaged[1] != blob
    with pytest.raises(ValueError):
        corrupt_cache_file(path, "exception")


# ----------------------------------------------------------------------
# spec validation
# ----------------------------------------------------------------------

@pytest.mark.parametrize("overrides", [
    {"timeout_s": 0},
    {"timeout_s": "soon"},
    {"stage_timeouts": {"nowhere": 1.0}},
    {"stage_timeouts": {"localize": 0}},
    {"stage_timeouts": 5},
    {"retries": -1},
    {"retries": 1.5},
    {"retry_backoff_s": -0.1},
    {"chaos": {"faults": [{"kind": "meteor"}]}},
])
def test_spec_rejects_bad_resilience_fields(overrides):
    with pytest.raises(SpecError):
        RunSpec(**overrides)


def test_spec_round_trips_resilience_fields():
    spec = RunSpec(
        timeout_s=5.0, stage_timeouts={"localize": 2.0}, retries=2,
        retry_backoff_s=0.01,
        chaos={"faults": [{"kind": "exception"}], "seed": 3},
    )
    again = RunSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
    assert again == spec


# ----------------------------------------------------------------------
# run_spec: the resilient executor
# ----------------------------------------------------------------------

def test_chaos_exception_yields_structured_failed_result():
    spec = RunSpec(**FAST, chaos={"kind": "exception", "stage": "localize"})
    result = run_spec(spec)
    assert result.status == "failed"
    assert not result.completed
    assert result.attempts == 1
    [failure] = result.failures
    assert failure["stage"] == "localize"
    assert failure["error"] == "ChaosError"
    assert failure["chaos"] is True
    # detection ran before the injected stage: partial results survive
    assert "detect" in result.timings["stages"]
    again = RunResult.from_json(result.to_json())
    assert again.to_dict() == result.to_dict()


def test_retry_steps_down_the_ladder_to_degraded():
    spec = RunSpec(**FAST, strategy="sat", retries=1,
                   chaos={"kind": "exception", "stage": "localize"})
    result = run_spec(spec)
    assert result.status == "degraded"
    assert result.completed
    assert result.attempts == 2
    [failure] = result.failures
    assert failure["attempt"] == 1 and failure["chaos"] is True
    [note] = result.degradations
    assert note["field"] == "strategy"
    assert (note["from"], note["to"]) == ("sat", "tiled")
    # the retry really ran the fallback strategy
    assert result.strategy == "tiled"
    baseline = run_spec(RunSpec(**FAST, strategy="tiled"))
    assert result.trajectory_key() == baseline.trajectory_key()


def test_chaos_hang_trips_run_deadline_with_partial_results():
    spec = RunSpec(
        **FAST, timeout_s=0.5,
        chaos={"kind": "hang", "stage": "localize", "hang_s": 30.0},
    )
    t0 = time.perf_counter()
    result = run_spec(spec)
    assert time.perf_counter() - t0 < 10.0  # the hang did not run out
    assert result.status == "timeout"
    assert result.attempts == 1  # a budget is a budget: no retry
    [failure] = result.failures
    assert failure["error"] == "DeadlineExceeded"
    assert failure["stage"] == "localize"
    # the detect stage completed before the hang: partial result kept
    assert "detect" in result.timings["stages"]


def test_stage_timeout_names_the_stage():
    spec = RunSpec(
        **FAST, stage_timeouts={"localize": 0.2},
        chaos={"kind": "hang", "stage": "localize", "hang_s": 30.0},
    )
    result = run_spec(spec)
    assert result.status == "timeout"
    [failure] = result.failures
    assert "stage:localize" in failure["message"]


def test_replay_reject_forces_fresh_pnr_degraded(tmp_path):
    shared = TileConfigCache()
    base = RunSpec(design="9sym", preset="fast", max_probes=6,
                   cache="shared")
    warm = run_spec(base, tile_cache=shared)  # warm the cache
    assert warm.status == "ok"
    assert shared.stores > 0
    hits_before = METRICS.counter_value("repro_commit_cache_hits_total")
    misses_before = METRICS.counter_value("repro_commit_cache_misses_total")
    denied = run_spec(
        base.replaced(chaos={"kind": "replay_reject"}), tile_cache=shared
    )
    assert denied.status == "degraded"
    [note] = denied.degradations
    assert note["field"] == "cache_replay"
    assert note["denied"] > 0
    # a denied replay is a miss and a rejection, in the run's own delta
    # and in the process metrics alike
    assert denied.cache["hits"] == 0
    assert denied.cache["rejected"] == note["denied"]
    assert METRICS.counter_value(
        "repro_commit_cache_hits_total") - hits_before == denied.cache["hits"]
    assert METRICS.counter_value(
        "repro_commit_cache_misses_total"
    ) - misses_before == denied.cache["misses"]
    # denial only slows the run; the debug outcome is bit-identical
    assert denied.trajectory_key() == warm.trajectory_key()
    assert denied.candidates == warm.candidates


def test_cache_corrupt_chaos_cold_starts_and_rewrites(tmp_path):
    cache_dir = str(tmp_path / "cache")
    base = RunSpec(design="9sym", preset="fast", max_probes=6,
                   cache="private", cache_dir=cache_dir)
    first = run_spec(base)
    assert first.status == "ok"
    entries = verify_cache_file(cache_file_path(cache_dir))
    assert entries > 0
    second = run_spec(base.replaced(chaos={"kind": "cache_truncate"}))
    assert second.status == "degraded"
    [note] = second.degradations
    assert note["field"] == "cache_file" and note["chaos"] == "cache_truncate"
    # the run cold-started, re-computed, and re-persisted a valid file
    assert verify_cache_file(cache_file_path(cache_dir)) == entries


def test_cache_chaos_on_an_entry_the_run_never_reads(tmp_path):
    """A damaged entry of another design is not read: the run replays
    everything, stays ``ok`` with no degradation note, and the damage
    waits in place until a lookup of that key quarantines it."""
    from repro.rng import derive_seed
    from repro.tiling.cache import TileConfigStore, verify_cache_store

    cache_dir = str(tmp_path / "cache")
    store = TileConfigStore(cache_file_path(cache_dir))
    styr = RunSpec(design="styr", error_seed=4, preset="fast",
                   max_probes=6, cache="private", cache_dir=cache_dir)
    assert run_spec(styr).status == "ok"
    styr_files = set(store.entry_files())
    nine = styr.replaced(design="9sym", error_seed=1)
    assert run_spec(nine).status == "ok"
    files = store.entry_files()
    # a chaos seed whose damage lands on a styr entry
    seed = next(s for s in range(64) if files[
        derive_seed(s, "chaos.cache_target") % len(files)] in styr_files)
    target = files[derive_seed(seed, "chaos.cache_target") % len(files)]

    rerun = run_spec(nine.replaced(
        chaos={"faults": [{"kind": "cache_truncate"}], "seed": seed}))
    assert rerun.status == "ok" and rerun.degradations == []
    assert rerun.cache["misses"] == 0 and rerun.cache["hits"] > 0
    assert verify_cache_store(cache_dir)["corrupt"] == [target]
    # the styr rerun reads it, quarantines it and rewrites it
    assert run_spec(styr).status == "ok"
    report = verify_cache_store(cache_dir)
    assert report["corrupt"] == [] and len(report["quarantined"]) == 1
    assert report["valid"] == len(files)


def test_plain_run_unaffected_by_resilience_machinery():
    plain = run_spec(RunSpec(**FAST))
    budgeted = run_spec(RunSpec(**FAST, timeout_s=300.0, retries=2))
    assert plain.status == budgeted.status == "ok"
    assert plain.failures == budgeted.failures == []
    assert plain.trajectory_key() == budgeted.trajectory_key()
    assert plain.candidates == budgeted.candidates


# ----------------------------------------------------------------------
# campaigns
# ----------------------------------------------------------------------

CHAOS_ONE_RUN = {
    "faults": [
        {"kind": "exception", "stage": "localize",
         "match": {"error_seed": [2]}},
    ],
}


def _campaign_specs(**extra):
    base = RunSpec(design="9sym", preset="fast", max_probes=6,
                   cache="private", **extra)
    return expand_matrix(base, error_seeds=[1, 2, 3])


def test_campaign_isolates_failed_run(tmp_path):
    cache_dir = str(tmp_path / "cache")
    runner = CampaignRunner(workers=2, cache_dir=cache_dir)
    campaign = runner.run(
        _campaign_specs(chaos=CHAOS_ONE_RUN, cache_dir=cache_dir)
    )
    assert [r.status for r in campaign.results] == ["ok", "failed", "ok"]
    assert campaign.n_failed == 1
    assert not campaign.aborted
    [record] = campaign.failures
    assert record["index"] == 1 and record["status"] == "failed"
    assert record["failures"][0]["error"] == "ChaosError"
    # the write-back still persisted the surviving runs' entries
    assert verify_cache_file(cache_file_path(cache_dir)) > 0


def test_campaign_abort_policy_stops_early():
    runner = CampaignRunner(workers=1, on_error="abort")
    campaign = runner.run(_campaign_specs(chaos=CHAOS_ONE_RUN))
    assert campaign.aborted
    assert [r.status for r in campaign.results] == ["ok", "failed"]
    assert any("aborted after run 1" in note for note in campaign.notes)
    with pytest.raises(ValueError):
        CampaignRunner(on_error="explode")


def test_campaign_isolates_worker_crash_outside_pipeline(monkeypatch):
    import repro.api.campaign as campaign_mod

    specs = _campaign_specs()

    def boom(self, spec):
        if spec.error_seed == 2:
            raise OSError("worker lost")
        return run_spec(spec, tile_cache=None)

    monkeypatch.setattr(campaign_mod.CampaignRunner, "_run_one", boom)
    campaign = CampaignRunner(workers=2).run(specs)
    assert [r.status for r in campaign.results] == ["ok", "failed", "ok"]
    [record] = campaign.failures
    assert record["failures"][0]["stage"] == "campaign"
    assert record["failures"][0]["error"] == "OSError"


def test_campaign_result_round_trips_aggregates(tmp_path):
    campaign = CampaignRunner(workers=1).run(
        _campaign_specs(chaos=CHAOS_ONE_RUN)
    )
    campaign.notes.append("a campaign-level note")
    path = str(tmp_path / "campaign.json")
    campaign.save(path)
    again = CampaignResult.load(path)
    assert [r.status for r in again.results] == ["ok", "failed", "ok"]
    assert again.n_failed == campaign.n_failed == 1
    assert again.n_degraded == campaign.n_degraded
    assert again.failures == campaign.failures
    assert again.notes == campaign.notes
    assert again.aborted is False
    data = campaign.to_dict()
    assert data["n_failed"] == 1 and data["failures"][0]["index"] == 1


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------

def test_cli_maps_internal_errors_to_structured_exit_3(monkeypatch, capsys):
    import repro.api.cli as cli

    def explode(*args, **kwargs):
        raise RuntimeError("wires crossed")

    monkeypatch.setattr(cli, "run_spec", explode)
    code = cli.main(["run", "--design", "9sym", "--preset", "fast"])
    assert code == 3
    err = capsys.readouterr().err
    payload = json.loads(err.strip().splitlines()[-1])
    assert payload["error"]["stage"] == "cli"
    assert payload["error"]["error"] == "RuntimeError"
    assert "wires crossed" in payload["error"]["message"]


def test_cli_user_errors_still_exit_2(capsys):
    import repro.api.cli as cli

    assert cli.main(["run", "--design", "no_such_design"]) == 2
    assert cli.main([
        "run", "--design", "9sym", "--stage-timeout", "localize",
    ]) == 2
    assert cli.main([
        "run", "--design", "9sym", "--chaos", "{not json",
    ]) == 2


def test_cli_run_reports_chaos_failure(capsys):
    import repro.api.cli as cli

    code = cli.main([
        "run", "--design", "9sym", "--preset", "fast", "--max-probes", "6",
        "--cache", "off", "--json", "-",
        "--chaos", '{"faults": [{"kind": "exception", "stage": "detect"}]}',
    ])
    assert code == 1  # ran to completion, but nothing was fixed
    out = capsys.readouterr()
    assert "status=failed" in out.err
    payload = json.loads(out.out)
    assert payload["status"] == "failed"
    assert payload["failures"][0]["error"] == "ChaosError"


def test_cli_campaign_chaos_smoke(tmp_path, capsys):
    import repro.api.cli as cli

    cache_dir = str(tmp_path / "cache")
    code = cli.main([
        "campaign", "--design", "9sym", "--preset", "fast",
        "--max-probes", "6", "--cache", "private",
        "--cache-dir", cache_dir, "--error-seeds", "1,2,3",
        "--chaos", json.dumps(CHAOS_ONE_RUN), "--out", "-",
    ])
    assert code == 0  # failures are isolated, the campaign succeeds
    out = capsys.readouterr()
    data = json.loads(out.out)
    assert data["n_runs"] == 3 and data["n_failed"] == 1
    assert [r["status"] for r in data["results"]] == ["ok", "failed", "ok"]
    assert verify_cache_file(cache_file_path(cache_dir)) > 0
    assert "1 failed" in out.err


# ----------------------------------------------------------------------
# localization drains
# ----------------------------------------------------------------------

#: an s9234 error whose probe verdicts drain every candidate, under
#: both the tiled and the SAT strategy
DRAIN = dict(design="s9234", error_seed=6, preset="fast", cache="private",
             retries=1)


def test_drain_is_not_retried_on_the_cache_rung():
    result = run_spec(RunSpec(**DRAIN))
    assert result.status == "failed"
    assert result.attempts == 1
    [failure] = result.failures
    assert failure["error"] == "LocalizationDrained"
    assert failure["stage"] == "localize"
    assert "eliminated every candidate" in failure["message"]
    assert not any(n["field"] == "cache" for n in result.degradations)


def test_sat_drain_still_takes_the_strategy_rung():
    result = run_spec(RunSpec(**DRAIN, strategy="sat"))
    assert result.status == "failed"
    assert result.attempts == 2
    assert [f["error"] for f in result.failures] == [
        "LocalizationDrained", "LocalizationDrained",
    ]
    [note] = result.degradations
    assert (note["field"], note["from"], note["to"]) == (
        "strategy", "sat", "tiled",
    )

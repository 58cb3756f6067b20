"""The debug service: warm registry, job queue, daemon round-trips.

The service's one invariant is that warm state is a *cache*, never a
semantic input: a daemon answer must be bit-identical (modulo timings
and attempt metadata) to an in-process :func:`run_spec` of the same
spec, whether the warm registry hit or missed.  Everything here — the
invalidation axes, the LRU bound, the fork structural digest, the
cold/warm daemon comparison, worker-death re-queues, restart resume —
is a facet of that invariant.
"""

import contextlib
import json
import os
import threading

import pytest

from repro.api.campaign import CampaignResult
from repro.api.design import (
    DesignMemo,
    design_digest,
    fork_bundle,
    load_bundle,
    warm_key,
)
from repro.api.journal import CampaignJournal, JsonlJournal
from repro.api.pipeline import run_spec
from repro.api.spec import RunSpec
from repro.resilience.failure import WORKER_STAGE
from repro.service.client import Client, ServiceError
from repro.service.daemon import ReproService, ServiceConfig
from repro.service.queue import DONE, QUEUED, JobQueue
from repro.service.warm import WarmRegistry

#: the cheapest spec that actually excites and fixes a bug
#: (error_seed=0 on 9sym never excites — keep seeds >= 1)
FAST = dict(design="9sym", preset="fast", max_probes=6, cache="off",
            error_seed=1)

#: result fields that legitimately differ between two executions of the
#: same spec — wall clock, per-stage timings, attempt bookkeeping
VOLATILE = {"wall_seconds", "timings", "effort", "cache", "attempts",
            "n_commit_cache_hits"}


def stable(result_dict: dict) -> dict:
    """A result dict with the volatile, timing-shaped fields removed."""
    return {k: v for k, v in result_dict.items() if k not in VOLATILE}


def netlist_digest(netlist) -> tuple:
    """Canonical structural signature: tables, wiring, connectivity."""
    insts = tuple(
        (
            inst.name,
            inst.kind.value,
            tuple(n.name for n in inst.inputs),
            inst.output.name if inst.output else None,
            tuple(sorted(inst.params.items())),
        )
        for inst in sorted(netlist.instances(), key=lambda i: i.name)
    )
    nets = tuple(
        (
            net.name,
            net.driver.name if net.driver else None,
            tuple(sorted((i.name, idx) for i, idx in net.sinks)),
        )
        for net in sorted(netlist.nets(), key=lambda n: n.name)
    )
    return insts, nets


@contextlib.contextmanager
def service(tmp_path, **overrides):
    """A running daemon + client against a tmp socket and spool."""
    config = dict(
        socket_path=str(tmp_path / "svc.sock"),
        spool_dir=str(tmp_path / "spool"),
        workers=1,
    )
    config.update(overrides)
    svc = ReproService(ServiceConfig(**config))
    svc.start()
    try:
        yield svc, Client(config["socket_path"])
    finally:
        svc.stop()


# ----------------------------------------------------------------------
# warm registry: keys, invalidation, LRU
# ----------------------------------------------------------------------

def test_warm_key_covers_every_design_axis():
    base = RunSpec(**FAST)
    # error/debug axes do not change what the design *is*: same key
    same = RunSpec(**dict(FAST, error_seed=3, seed=9, strategy="sat",
                          max_probes=2))
    assert warm_key(same) == warm_key(base)
    # any axis feeding bundle or device construction must miss
    for change in (
        dict(preset="thorough"),
        dict(device="XC4005"),
        dict(channel_width=9),
        dict(device_overhead=0.5),
        dict(design="styr"),
        dict(design="random", design_params={"n_gates": 40}),
    ):
        other = RunSpec(**dict(FAST, **change))
        assert warm_key(other) != warm_key(base), change
    # design_params feed the digest half, not the device/preset half
    p1 = RunSpec(**dict(FAST, design="random",
                        design_params={"n_gates": 40}))
    p2 = RunSpec(**dict(FAST, design="random",
                        design_params={"n_gates": 48}))
    assert design_digest(p1) != design_digest(p2)


def test_warm_lookup_hits_and_golden_mutation_invalidates():
    registry = DesignMemo()
    spec = RunSpec(**FAST)
    entry, hit = registry.lookup(spec)
    assert not hit and registry.misses == 1
    again, hit = registry.lookup(spec)
    assert hit and again is entry and registry.hits == 1
    assert registry.would_hit(spec)
    # the pipeline must never mutate the shared golden; if anything
    # does, the revision guard declares the entry stale
    entry.golden.add_net("warm_guard_probe")
    assert not registry.would_hit(spec)
    rebuilt, hit = registry.lookup(spec)
    assert not hit and rebuilt is not entry
    assert registry.invalidations == 1


def test_forked_bundle_is_structurally_identical_and_mutation_safe():
    registry = DesignMemo()
    spec = RunSpec(**FAST)
    bundle, _, golden, _ = registry.context_parts(spec)
    cold = load_bundle(spec)
    # structural identity with a cold build — the whole reason a fork
    # can stand in for a rebuild
    assert (netlist_digest(bundle.packed.netlist)
            == netlist_digest(cold.packed.netlist))
    # but never the pristine object itself: each job gets its own copy
    entry, _ = registry.lookup(spec)
    assert bundle is not entry.bundle
    assert bundle.packed.netlist is not entry.bundle.packed.netlist
    second = fork_bundle(entry.bundle)
    assert second.packed.netlist is not bundle.packed.netlist
    # the golden *is* shared (read-only) — that is what keeps its
    # compiled kernel warm across jobs
    assert registry.context_parts(spec)[2] is golden


def test_warm_runs_are_bit_identical_never_stale_replays():
    registry = WarmRegistry().designs
    spec1 = RunSpec(**FAST)
    spec2 = RunSpec(**dict(FAST, error_seed=2))
    cold1 = run_spec(spec1)
    cold2 = run_spec(spec2)
    warm1 = run_spec(spec1, warm=registry)            # registry miss
    warm2 = run_spec(spec2, warm=registry)            # warm hit
    assert registry.hits >= 1 and registry.misses == 1
    # each warm answer equals its own cold answer — a hit on the seed-1
    # entry must not replay seed-1 artifacts into the seed-2 run
    assert stable(warm1.to_dict()) == stable(cold1.to_dict())
    assert stable(warm2.to_dict()) == stable(cold2.to_dict())
    assert warm2.error_instance == cold2.error_instance


def test_warm_registry_lru_eviction_at_bound():
    registry = WarmRegistry(max_entries=2).designs
    specs = [RunSpec(**dict(FAST, device_overhead=ov))
             for ov in (0.35, 0.55, 0.75)]
    for spec in specs:
        registry.lookup(spec)
    assert len(registry) == 2
    assert registry.evictions == 1
    # oldest out, newest in
    assert not registry.would_hit(specs[0])
    assert registry.would_hit(specs[1])
    assert registry.would_hit(specs[2])
    # touching an entry refreshes it: next eviction takes the other one
    registry.lookup(specs[1])
    registry.lookup(specs[0])  # rebuild; evicts specs[2], not specs[1]
    assert registry.would_hit(specs[1])
    assert not registry.would_hit(specs[2])
    stats = registry.stats()
    assert stats["entries"] == 2 and stats["evictions"] == 2


# ----------------------------------------------------------------------
# job queue: priorities, dedup, spool resume
# ----------------------------------------------------------------------

def test_queue_priority_dedup_and_fresh():
    queue = JobQueue()
    a = RunSpec(**FAST)
    b = RunSpec(**dict(FAST, error_seed=2))
    job_a, deduped = queue.submit(a)
    assert not deduped
    again, deduped = queue.submit(a)
    assert deduped and again is job_a
    job_b, _ = queue.submit(b, priority=5)
    assert queue.claim(timeout_s=1.0) is job_b  # priority first
    assert queue.claim(timeout_s=1.0) is job_a
    assert queue.claim(timeout_s=0.05) is None  # empty → timeout
    queue.finish(job_a, {"status": "ok"})
    done, deduped = queue.submit(a)
    assert deduped and done.state == DONE
    # the digest ignores harness fields: a fresh resubmit that adds
    # chaos and a cache dir must queue them, not the finished spec
    resubmitted = a.replaced(chaos={"kind": "replay_reject"},
                             cache_dir="resubmit-cache")
    assert resubmitted.digest() == a.digest()
    fresh, deduped = queue.submit(resubmitted, fresh=True)
    assert not deduped and fresh is job_a
    assert fresh.state == QUEUED and fresh.result is None
    assert fresh.attempts == 0 and not len(fresh.events)
    assert fresh.spec.chaos == resubmitted.chaos
    assert fresh.spec.cache_dir == "resubmit-cache"
    assert queue.claim(timeout_s=1.0).spec is resubmitted


def test_queue_spool_survives_restart_without_duplicates(tmp_path):
    spool = str(tmp_path / "spool")
    a = RunSpec(**FAST)
    b = RunSpec(**dict(FAST, error_seed=2))
    first = JobQueue(spool_dir=spool)
    first.submit(a)
    first.submit(b)
    claimed = first.claim(timeout_s=1.0)
    first.finish(claimed, {"status": "ok", "marker": 41})

    resumed = JobQueue(spool_dir=spool)
    assert resumed.stats() == {"jobs": 2, "queued": 1, "running": 0,
                               "done": 1}
    # the finished job keeps answering with its journaled result
    kept = resumed.get(claimed.digest)
    assert kept.state == DONE and kept.result["marker"] == 41
    # the unfinished one is re-queued exactly once
    pending = resumed.claim(timeout_s=1.0)
    assert pending.digest == b.digest()
    assert resumed.claim(timeout_s=0.05) is None


# ----------------------------------------------------------------------
# daemon round-trips
# ----------------------------------------------------------------------

def test_daemon_cold_warm_bit_identity_dedup_and_events(tmp_path):
    spec = RunSpec(**FAST)
    local = run_spec(spec)
    with service(tmp_path) as (svc, client):
        assert client.ping()["version"] == 1
        cold = client.run(spec)
        assert not cold["warm"]["hit"]
        assert cold["result"]["status"] == "ok"
        # same digest, no fresh → coalesces onto the done job
        dedup = client.submit(spec)
        assert dedup["deduped"] and dedup["state"] == "done"
        warm = client.run(spec, fresh=True)
        assert warm["warm"]["hit"]
        # the invariant: daemon answers equal the in-process answer,
        # cold and warm alike
        assert stable(cold["result"]) == stable(local.to_dict())
        assert stable(warm["result"]) == stable(local.to_dict())
        # the event stream replays the pipeline's progress and ends
        # with the done sentinel
        events = list(client.events(cold["job"]))
        kinds = [e.get("event") for e in events]
        assert "stage_start" in kinds and "commit" in kinds
        assert kinds[-1] == "done"
        assert events[-1]["status"] == "ok"
        stats = client.stats()
        assert stats["queue"]["done"] == 1
        assert stats["workers"][0]["jobs_done"] == 2


def test_warm_daemon_replays_pnr_for_a_new_error_seed(tmp_path):
    """A new error seed on a design the worker already implemented
    replays its P&R from the worker-resident tile cache."""
    first = RunSpec(**dict(FAST, cache="shared"))
    second = RunSpec(**dict(FAST, cache="shared", error_seed=2))
    with service(tmp_path) as (svc, client):
        assert client.run(first)["result"]["status"] == "ok"
        response = client.run(second)
    result = response["result"]
    # error seed 2 is never excited, so its one lookup is the initial
    # P&R — and it hits on the layout the seed-1 job stored
    assert not result["detected"]
    assert result["cache"]["hits"] == 1 and result["cache"]["misses"] == 0
    cold = run_spec(second, tile_cache=None)
    assert stable(result) == stable(cold.to_dict())


def test_daemon_worker_death_requeues_once_and_completes(tmp_path):
    # the fault SIGKILLs the worker in localize on the first dispatch;
    # its finite fires-budget died with that process, so the re-queued
    # attempt runs clean
    spec = RunSpec(**dict(FAST, chaos={"faults": [
        {"kind": "worker_kill", "stage": "localize", "fires": 1}]}))
    with service(tmp_path) as (svc, client):
        response = client.run(spec, timeout_s=300.0)
        assert response["result"]["status"] == "ok"
        assert response["attempts"] == 2
        events = list(client.events(response["job"]))
        requeues = [e for e in events if e.get("event") == "requeued"]
        assert len(requeues) == 1
        assert requeues[0]["error"] == "WorkerCrashed"
        assert svc.workers[0].deaths == 1


def test_daemon_persistent_death_folds_into_worker_failure(tmp_path):
    # fires: null — the fault survives re-dispatch, so the job kills
    # every worker it touches and must settle as failed, carrying one
    # stage-"worker" failure per death
    spec = RunSpec(**dict(FAST, chaos={"faults": [
        {"kind": "worker_kill", "stage": "localize", "fires": None}]}))
    with service(tmp_path, max_requeues=1) as (svc, client):
        response = client.run(spec, timeout_s=300.0)
        result = response["result"]
        assert result["status"] == "failed"
        assert len(result["failures"]) == 2
        assert all(f["stage"] == WORKER_STAGE
                   for f in result["failures"])
        assert all(f["error"] == "WorkerCrashed"
                   for f in result["failures"])
        # each death names its signal, as the one-shot supervisor does
        assert all("SIGKILL" in f["message"] for f in result["failures"])


@pytest.mark.parametrize("fault, overrides, verdict", [
    # an in-pipeline hang that keeps heartbeating: only the per-job
    # hard ceiling ends it, and a blown ceiling is never re-queued
    ({"kind": "hang", "stage": "localize", "hang_s": 60.0},
     {"hard_timeout_s": 2.0}, "WorkerHardTimeout"),
    # a frozen worker stops beating: the watchdog kills it and the job
    # re-runs clean (the fault's single fire died with the worker)
    ({"kind": "worker_hang", "stage": "localize", "fires": 1},
     {"heartbeat_timeout_s": 1.5}, "WorkerHeartbeatLost"),
], ids=["hard_timeout", "heartbeat_lost"])
def test_daemon_kill_paths(tmp_path, fault, overrides, verdict):
    spec = RunSpec(**dict(FAST, chaos={"faults": [fault]}))
    with service(tmp_path, **overrides) as (svc, client):
        response = client.run(spec, timeout_s=300.0)
        result = response["result"]
        requeues = [e for e in client.events(response["job"])
                    if e.get("event") == "requeued"]
        if verdict == "WorkerHardTimeout":
            assert result["status"] == "timeout"
            assert result["failures"][0]["stage"] == WORKER_STAGE
            assert result["failures"][0]["error"] == verdict
            assert requeues == []
            assert svc.workers[0].deaths == 1
            # the respawned worker serves the next job normally
            after = client.run(RunSpec(**dict(FAST, error_seed=3)),
                               timeout_s=300.0)
            assert after["result"]["status"] == "ok"
        else:
            assert result["status"] == "ok"
            assert response["attempts"] == 2
            assert [e["error"] for e in requeues] == [verdict]
            assert svc.workers[0].deaths == 1


def test_daemon_stop_waits_for_a_concurrent_drain(tmp_path):
    # the shutdown verb drains on its own thread while the foreground
    # loop calls stop() too: that second call must not return (and let
    # the process exit) before the drain has removed the socket
    with service(tmp_path) as (svc, client):
        client.ping()
        drain = threading.Thread(target=svc.stop)
        drain.start()
        assert svc._stopping.wait(timeout=5.0)
        svc.stop()
        assert not os.path.exists(svc.config.socket_path)
        assert not svc.workers[0].alive()
        drain.join()


def test_daemon_restart_resumes_spool_without_duplicates(tmp_path):
    spool = str(tmp_path / "spool")
    specs = [RunSpec(**FAST), RunSpec(**dict(FAST, error_seed=2))]
    digests = [s.digest() for s in specs]

    # a daemon with no workers accepts work but cannot run it — the
    # jobs land in the spool and stay there across stop()
    with service(tmp_path, spool_dir=spool, workers=0) as (svc, client):
        for spec in specs:
            accepted = client.submit(spec)
            assert accepted["state"] == "queued"
        with pytest.raises(ServiceError, match="not finished"):
            client.result(digests[0])

    # restart with a worker: the spool replays, both jobs complete
    with service(tmp_path, spool_dir=spool, workers=1) as (svc, client):
        for digest, spec in zip(digests, specs):
            response = client.wait(digest, timeout_s=300.0)
            assert response["result"]["status"] == "ok"
            assert response["result"]["spec"]["error_seed"] == \
                spec.error_seed

    # each job finished exactly once — no duplicate executions
    records = JsonlJournal(os.path.join(spool, "results.jsonl")).records()
    assert sorted(r["digest"] for r in records) == sorted(digests)

    # a third start answers from the journal without any worker at all
    with service(tmp_path, spool_dir=spool, workers=0) as (svc, client):
        for digest in digests:
            assert client.result(digest)["result"]["status"] == "ok"
        assert client.stats()["queue"] == {
            "jobs": 2, "queued": 0, "running": 0, "done": 2,
        }


# ----------------------------------------------------------------------
# CLI satellites: report over directories, consistent summaries
# ----------------------------------------------------------------------

def test_campaign_summary_line_prints_executor_and_workers():
    empty = CampaignResult(wall_seconds=2.0, workers=4,
                           executor="process")
    assert empty.summary_line() == (
        "0 runs, 0 detected, 0 localized, 0 fixed "
        "(2.0s, process executor, 4 workers)"
    )
    solo = CampaignResult(wall_seconds=0.5)
    assert solo.summary_line().endswith("(0.5s, thread executor, "
                                        "1 worker)")


def test_report_accepts_a_directory_of_results(tmp_path, capsys):
    from repro.api.cli import main

    spec = RunSpec(**FAST)
    result = run_spec(spec)

    report_dir = tmp_path / "results"
    report_dir.mkdir()
    # one bare RunResult JSON ...
    (report_dir / "single.json").write_text(
        json.dumps(result.to_dict())
    )
    # ... one campaign JSON ...
    campaign = CampaignResult(results=[result], wall_seconds=1.5,
                              workers=3, executor="process")
    (report_dir / "campaign.json").write_text(
        json.dumps(campaign.to_dict())
    )
    # ... and one journal, as `campaign --journal` / the service write
    journal = CampaignJournal(str(report_dir / "journal.jsonl"))
    journal.append(spec, result)
    (report_dir / "notes.txt").write_text("ignored")

    assert main(["report", str(report_dir)]) == 0
    out = capsys.readouterr().out
    # campaign and report print the identical summary line
    assert campaign.summary_line() in out
    assert "process executor, 3 workers" in out
    assert "3 results" in out and "across 3 files" in out
    assert out.count("9sym") == 3


def test_daemon_forwards_spans_when_traced_and_serves_metrics(tmp_path):
    """`submit trace:true` streams span lines; `stats metrics` exposes
    the merged per-job metric deltas in Prometheus text format."""
    from repro.obs.metrics import METRICS

    spec = RunSpec(**FAST)
    # the daemon's registry is this process's METRICS; earlier tests
    # may have written to it, so assert on the delta, not absolutes
    before = METRICS.snapshot()
    with service(tmp_path) as (svc, client):
        plain = client.run(spec)
        assert plain["result"]["status"] == "ok"
        plain_kinds = {e.get("event")
                       for e in client.events(plain["job"])}
        assert "span_start" not in plain_kinds  # untraced job: no spans

        traced = client.submit(spec, fresh=True, trace=True)
        client.wait(traced["job"])
        events = list(client.events(traced["job"]))
        starts = [e for e in events if e.get("event") == "span_start"]
        ends = [e for e in events if e.get("event") == "span_end"]
        names = {e["name"] for e in starts}
        assert {"run", "detect", "diagnose", "round", "localize",
                "verify"} <= names
        assert len(starts) == len(ends)
        run_end = next(e for e in ends if e["name"] == "run")
        assert run_end["status"] == "ok"
        assert run_end["seconds"] > 0
        assert run_end["attrs"]["rounds"] == 1

        stats = client.stats(metrics=True)
        text = stats["metrics_text"]
        assert text.endswith("\n")
        for line in text.strip().splitlines():
            assert line.startswith("#") or " " in line, line
        for name in ("repro_runs_total", "repro_probes_total",
                     "repro_service_jobs_total",
                     "repro_warm_registry_hits_total",
                     "repro_queue_depth", "repro_stage_seconds_bucket"):
            assert any(line.startswith(name)
                       for line in text.splitlines()), name
        # worker per-job deltas merged into the daemon registry:
        # exactly these two jobs' worth of counters landed
        grew = {
            (c["name"], tuple(sorted(c["labels"].items()))): c["value"]
            for c in METRICS.delta(before)["counters"]
        }
        assert grew[("repro_runs_total", (("status", "ok"),))] == 2.0
        assert grew[
            ("repro_service_jobs_total", (("status", "ok"),))
        ] == 2.0
        assert grew[("repro_probes_total", ())] > 0
        # the fresh re-submit hit the worker's warm registry
        assert grew[("repro_warm_registry_hits_total", ())] == 1.0
        # a plain stats answer has no exposition payload
        assert "metrics_text" not in client.stats()

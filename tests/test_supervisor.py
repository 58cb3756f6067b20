"""Supervised process workers, campaign journal/resume, backoff clamp.

The process executor's contract: bit-identical results to the thread
executor when workers live, structured stage-``"worker"`` failures when
they die (crash, hang, hard timeout), and journal-backed resume that
re-executes only unfinished specs after an interrupt.
"""

import json
import os

import pytest

from repro.api.campaign import CampaignRunner, expand_matrix
from repro.api.journal import CampaignJournal
from repro.api.pipeline import PipelineHooks, run_spec
from repro.api.result import RunResult
from repro.api.spec import RunSpec
from repro.resilience.budget import (
    Deadline,
    backoff_seconds,
    clamp_backoff,
    deadline_scope,
)
from repro.resilience.failure import WORKER_STAGE, RunFailure
from repro.resilience.supervisor import hard_timeout_for, run_supervised

#: the cheapest spec that actually excites and fixes a bug
#: (error_seed=0 on 9sym never excites — keep seeds >= 1)
FAST = dict(design="9sym", preset="fast", max_probes=6, cache="off",
            error_seed=1)

KILL_SECOND = {
    "faults": [{
        "kind": "worker_kill", "stage": "localize",
        "match": {"error_seed": [2]},
    }]
}


def identical(a: RunResult, b: RunResult) -> bool:
    return (
        a.trajectory_key() == b.trajectory_key()
        and a.candidates == b.candidates
        and a.status == b.status
        and a.fixed == b.fixed
    )


# ----------------------------------------------------------------------
# run_supervised
# ----------------------------------------------------------------------

def test_supervised_run_is_bit_identical_to_in_process():
    spec = RunSpec(**FAST)
    local = run_spec(spec)
    remote = run_supervised(spec)
    assert remote.status == "ok"
    assert identical(local, remote)
    assert remote.spec == spec.to_dict()


def test_worker_kill_becomes_structured_worker_failure():
    spec = RunSpec(design="9sym", preset="fast", max_probes=6,
                   cache="off", error_seed=2, chaos=KILL_SECOND)
    result = run_supervised(spec)
    assert result.status == "failed"
    assert len(result.failures) == 1
    failure = result.failures[0]
    assert failure["stage"] == WORKER_STAGE
    assert failure["error"] == "WorkerCrashed"
    assert "SIGKILL" in failure["message"]


def test_worker_crash_report_is_not_drowned_by_import_warnings():
    # the stderr tail is the crash report: a child entry point imported
    # by its own package prints a runpy RuntimeWarning that would fill it
    spec = RunSpec(design="9sym", preset="fast", max_probes=6,
                   cache="off", error_seed=2, chaos=KILL_SECOND)
    message = run_supervised(spec).failures[0]["message"]
    assert "found in sys.modules" not in message
    assert "RuntimeWarning" not in message


def test_worker_hang_trips_heartbeat_and_is_killed():
    chaos = {"faults": [{"kind": "worker_hang", "stage": "localize"}]}
    spec = RunSpec(design="9sym", preset="fast", max_probes=6,
                   cache="off", error_seed=1, chaos=chaos)
    result = run_supervised(spec, heartbeat_timeout_s=1.5)
    assert result.status == "failed"
    assert result.failures[0]["stage"] == WORKER_STAGE
    assert result.failures[0]["error"] == "WorkerHeartbeatLost"


def test_hard_timeout_kills_a_cooperation_proof_worker():
    # an in-pipeline hang with no cooperative deadline armed: only the
    # supervisor's hard ceiling can end this run
    chaos = {"faults": [{"kind": "hang", "stage": "localize",
                         "hang_s": 60.0}]}
    spec = RunSpec(design="9sym", preset="fast", max_probes=6,
                   cache="off", error_seed=1, chaos=chaos)
    result = run_supervised(spec, hard_timeout_s=2.0)
    assert result.status == "timeout"
    assert result.failures[0]["stage"] == WORKER_STAGE
    assert result.failures[0]["error"] == "WorkerHardTimeout"


def test_hard_timeout_derivation():
    assert hard_timeout_for(RunSpec(**FAST)) is None
    spec = RunSpec(**dict(FAST, timeout_s=10.0))
    assert hard_timeout_for(spec) == pytest.approx(40.0)
    assert hard_timeout_for(spec, hard_timeout_s=7.0) == 7.0


def test_slow_heartbeat_worker_is_not_falsely_killed():
    # a worker configured to beat once a second must survive a 2.5 s
    # watchdog grace: interval < grace means silence is never mistaken
    # for death, however leisurely the beat
    spec = RunSpec(**FAST)
    local = run_spec(spec)
    remote = run_supervised(spec, heartbeat_interval_s=1.0,
                            heartbeat_timeout_s=2.5)
    assert remote.status == "ok"
    assert identical(local, remote)


def test_heartbeat_interval_rides_into_the_worker():
    # the converse proves the knob actually reaches the child: with the
    # first beat scheduled *after* the grace window, a perfectly healthy
    # worker is declared heartbeat-lost
    spec = RunSpec(**dict(FAST, chaos={"faults": [
        {"kind": "hang", "stage": "localize", "hang_s": 30.0}]}))
    result = run_supervised(spec, heartbeat_interval_s=10.0,
                            heartbeat_timeout_s=2.0, hard_timeout_s=60.0)
    assert result.status == "failed"
    assert result.failures[0]["stage"] == WORKER_STAGE
    assert result.failures[0]["error"] == "WorkerHeartbeatLost"


def test_worker_kinds_are_inert_in_process():
    # under the thread executor the same chaos config must be a no-op:
    # an in-process SIGKILL would take the whole campaign down
    spec = RunSpec(design="9sym", preset="fast", max_probes=6,
                   cache="off", error_seed=2, chaos=KILL_SECOND)
    result = run_spec(spec)
    assert result.status == "ok"
    assert not result.failures


# ----------------------------------------------------------------------
# journal
# ----------------------------------------------------------------------

def test_journal_roundtrip_and_torn_tail(tmp_path):
    journal = CampaignJournal(str(tmp_path / "journal.jsonl"))
    assert journal.load() == {}
    spec = RunSpec(**FAST)
    result = RunResult(spec=spec.to_dict(), status="ok", design="9sym")
    journal.append(spec, result)
    entries = journal.load()
    assert set(entries) == {spec.digest()}
    assert entries[spec.digest()]["status"] == "ok"
    # a crash mid-append can tear the last line; load must survive it
    with open(journal.path, "a") as fh:
        fh.write('{"v": 1, "digest": "abc", "status": "o')
    assert set(journal.load()) == {spec.digest()}
    # a re-executed run supersedes its first entry
    journal.append(spec, RunResult(spec=spec.to_dict(), status="failed"))
    assert journal.load()[spec.digest()]["status"] == "failed"


def test_spec_digest_ignores_harness_fields():
    spec = RunSpec(**FAST)
    assert spec.digest() == spec.replaced(chaos=KILL_SECOND).digest()
    assert spec.digest() == spec.replaced(cache_dir="/tmp/x").digest()
    assert spec.digest() != spec.replaced(error_seed=2).digest()
    assert spec.digest() != spec.replaced(strategy="quick_eco").digest()


def test_worker_failure_result_is_spec_complete():
    spec = RunSpec(**FAST)
    failure = RunFailure(stage=WORKER_STAGE, error="WorkerCrashed",
                         message="killed")
    result = RunResult.from_spec(spec, status="failed",
                                 failures=[failure.to_dict()],
                                 wall_seconds=1.25)
    assert result.status == "failed"
    assert result.spec == spec.to_dict()
    assert result.design == "9sym"
    assert result.strategy == spec.strategy
    assert result.engine == spec.engine
    assert result.error_kind == spec.error_kind
    assert result.wall_seconds == 1.25
    assert result.failures == [failure.to_dict()]
    # JSON-complete like every other result
    assert RunResult.from_json(result.to_json()).failures == result.failures


# ----------------------------------------------------------------------
# process-executor campaigns
# ----------------------------------------------------------------------

def test_process_campaign_survives_worker_kill_and_resumes(tmp_path):
    cache_dir = str(tmp_path / "cache")
    journal = str(tmp_path / "journal.jsonl")
    base = RunSpec(design="9sym", preset="fast", max_probes=6,
                   cache="shared", error_seed=1, chaos=KILL_SECOND)
    specs = expand_matrix(base, error_seeds=[1, 2, 3])

    runner = CampaignRunner(workers=2, executor="process",
                            cache_dir=cache_dir, journal=journal)
    campaign = runner.run(specs)
    assert [r.status for r in campaign.results] == ["ok", "failed", "ok"]
    assert campaign.executor == "process"
    assert not campaign.aborted and not campaign.interrupted
    killed = campaign.results[1]
    assert killed.failures[0]["stage"] == WORKER_STAGE

    # surviving runs are bit-identical to the thread executor
    thread = CampaignRunner(workers=1).run(
        [s.replaced(chaos=None) for s in specs]
    )
    assert identical(campaign.results[0], thread.results[0])
    assert identical(campaign.results[2], thread.results[2])

    # the shared store survived the kill and verifies clean
    from repro.tiling.cache import cache_file_path, verify_cache_file

    assert verify_cache_file(cache_file_path(cache_dir)) > 0

    # resume re-executes only the killed spec and reaches all-ok
    resumed = CampaignRunner(
        workers=2, executor="process", cache_dir=cache_dir,
        journal=journal, resume=True,
    ).run([s.replaced(chaos=None) for s in specs])
    assert [r.status for r in resumed.results] == ["ok", "ok", "ok"]
    assert any("resume: skipped 2" in n for n in resumed.notes)
    assert identical(resumed.results[1], thread.results[1])


def test_process_campaign_aggregates_worker_cache_deltas(tmp_path):
    cache_dir = str(tmp_path / "cache")
    spec = RunSpec(design="9sym", preset="fast", max_probes=6,
                   cache="shared", error_seed=1)
    campaign = CampaignRunner(
        workers=1, executor="process", cache_dir=cache_dir
    ).run([spec])
    assert campaign.cache is not None
    assert campaign.cache["stores"] > 0


# ----------------------------------------------------------------------
# interrupt + resume (thread executor)
# ----------------------------------------------------------------------

class _InterruptOnSeed(PipelineHooks):
    """Simulates Ctrl-C landing mid-campaign, at a chosen run's start."""

    def __init__(self, error_seed: int) -> None:
        self.error_seed = error_seed

    def on_stage_start(self, stage, ctx) -> None:
        if (
            stage.name == "detect"
            and ctx.spec is not None
            and ctx.spec.error_seed == self.error_seed
        ):
            raise KeyboardInterrupt


def test_sigint_mid_campaign_journals_partial_and_resumes(tmp_path):
    journal = str(tmp_path / "journal.jsonl")
    base = RunSpec(**FAST)
    specs = expand_matrix(base, error_seeds=[1, 2, 3])

    uninterrupted = CampaignRunner(workers=1).run(specs)
    assert all(r.status == "ok" for r in uninterrupted.results)

    interrupted = CampaignRunner(
        workers=1, hooks=_InterruptOnSeed(2), journal=journal
    ).run(specs)
    assert interrupted.interrupted
    assert len(interrupted.results) == 1
    assert any("interrupted" in n for n in interrupted.notes)
    # the completed run was journaled before the interrupt landed
    assert len(CampaignJournal(journal).load()) == 1

    resumed = CampaignRunner(
        workers=1, journal=journal, resume=True
    ).run(specs)
    assert not resumed.interrupted
    assert len(resumed.results) == 3
    assert any("resume: skipped 1" in n for n in resumed.notes)
    # completing only the remainder yields the uninterrupted campaign
    for got, want in zip(resumed.results, uninterrupted.results):
        assert identical(got, want)
    # ... and the journal now covers every spec
    assert len(CampaignJournal(journal).load()) == 3


def test_runner_validation():
    with pytest.raises(ValueError):
        CampaignRunner(executor="fork")
    with pytest.raises(ValueError):
        CampaignRunner(resume=True)  # resume needs a journal
    with pytest.raises(ValueError):
        CampaignRunner(executor="process", hooks=PipelineHooks())


# ----------------------------------------------------------------------
# backoff clamp
# ----------------------------------------------------------------------

def test_clamp_backoff_without_budget_is_identity():
    assert clamp_backoff(1.5) == 1.5
    assert clamp_backoff(0.0) == 0.0
    assert clamp_backoff(-1.0) == 0.0


def test_clamp_backoff_honors_run_budget():
    # the sleep may take at most half the budget: the retry attempt
    # itself must get the larger share
    assert clamp_backoff(10.0, budget_s=4.0) == 2.0
    assert clamp_backoff(1.0, budget_s=4.0) == 1.0


def test_clamp_backoff_honors_armed_deadline():
    with deadline_scope(Deadline(0.5)):
        assert clamp_backoff(10.0, budget_s=60.0) <= 0.25
    # the deadline wins even when tighter than the explicit budget
    with deadline_scope(Deadline(100.0)):
        assert clamp_backoff(10.0, budget_s=4.0) == 2.0


def test_backoff_sleep_cannot_exceed_half_timeout():
    # the composition the pipeline uses at its retry site
    spec = RunSpec(**dict(FAST, retries=2, retry_backoff_s=8.0,
                          timeout_s=1.0))
    for attempt in (1, 2):
        raw = backoff_seconds(attempt, seed=spec.seed,
                              base=spec.retry_backoff_s)
        assert clamp_backoff(raw, budget_s=spec.timeout_s) <= 0.5


# ----------------------------------------------------------------------
# CLI: cache verify
# ----------------------------------------------------------------------

def test_cli_cache_verify(tmp_path, capsys):
    from repro.api.cli import main
    from repro.tiling.cache import TileConfig, TileConfigStore, \
        cache_file_path

    cache_dir = str(tmp_path)
    assert main(["cache", "verify", str(tmp_path / "missing")]) == 0

    store = TileConfigStore(cache_file_path(cache_dir))
    store.write_entry("k1", TileConfig({}, {}, {}))
    store.write_entry("k2", TileConfig({}, {}, {}))
    assert main(["cache", "verify", cache_dir]) == 0
    # the bare store directory is accepted too
    assert main(["cache", "verify", store.root]) == 0

    with open(store.entry_path("k2"), "wb") as fh:
        fh.write(b"garbage")
    assert main(["cache", "verify", cache_dir]) == 1
    out = capsys.readouterr().out
    assert "1 corrupt" in out

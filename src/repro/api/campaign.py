"""`CampaignRunner` — fan a list of specs through the pipeline.

A campaign is just N independent pipeline runs: each run mutates its
own design copy, so runs share nothing but caches — the tile
configuration store and, under the thread executor, one design memo
(:class:`~repro.api.design.DesignMemo`) that builds each design and
simulates each golden stimulus once.  That makes the fan-out
embarrassingly parallel and deterministic: results come back in spec
order and every run's candidates and probe trajectory are independent
of worker count and executor (cache replays are verified bit-identical
to the fresh path before they are applied, and a memo hit hands out
exactly what a cold build makes).

Two executors share the same contract.  ``executor="thread"`` is the
historical in-process fan-out — cheap, GIL-bound, bit-identical to
every prior release.  ``executor="process"`` ships each spec to a
supervised child process (:mod:`repro.resilience.supervisor`): true
parallelism, hard kill-based wall-clock limits, and worker death
(crash, OOM-kill, lost heartbeat, chaos ``worker_kill``) folded into
structured ``status="failed"`` results with stage ``"worker"`` instead
of a dead campaign.  Workers share warm tile configurations through
the crash-safe on-disk store under ``cache_dir``.

A ``journal`` (append-only JSONL, flushed per completed run) plus
``resume=True`` turns an interrupted campaign — SIGINT, OOM, power —
into a restartable one: journaled runs with a completed status are
returned verbatim and only the remainder re-executes.

`expand_matrix` builds the common spec grids (designs x error seeds x
strategies x engines) from one base spec.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from repro.api.design import DesignMemo
from repro.api.journal import CampaignJournal
from repro.api.pipeline import PipelineHooks, resolve_tile_cache, run_spec
from repro.api.result import RunResult
from repro.api.spec import RunSpec
from repro.obs.metrics import METRICS
from repro.tiling.cache import (
    CACHE_COUNTERS,
    TileConfigCache,
    cache_summary,
    load_tile_cache,
    save_tile_cache,
)


def expand_matrix(
    base: RunSpec,
    designs: list[str] | None = None,
    strategies: list[str] | None = None,
    engines: list[str] | None = None,
    error_kinds: list[str] | None = None,
    error_seeds: list[int] | None = None,
    seeds: list[int] | None = None,
    n_errors: list[int] | None = None,
) -> list[RunSpec]:
    """The cartesian spec grid over the given axes, in a fixed order.

    Axes left as ``None`` — or empty, which a CSV flag like
    ``--designs ""`` produces — keep the base spec's value, so an
    unspecified axis never silently collapses the matrix to zero runs.
    Order is the nesting order of the arguments (designs outermost,
    seeds innermost) so a results file lines up with the grid row by
    row; no axes at all yields the single-spec matrix ``[base]``.
    The ``n_errors`` axis scales the injected fault count (the base
    spec's per-error ``error_kinds`` list, if any, is dropped on those
    specs so the single ``error_kind`` can repeat to any count).
    """
    axes = [
        ("design", designs), ("strategy", strategies),
        ("engine", engines), ("error_kind", error_kinds),
        ("error_seed", error_seeds), ("seed", seeds),
        ("n_errors", n_errors),
    ]
    names = [name for name, values in axes if values]
    pools = [values for _, values in axes if values]
    if not names:
        return [base]
    specs = []
    for combo in itertools.product(*pools):
        overrides = dict(zip(names, combo))
        if "n_errors" in overrides and base.error_kinds is not None:
            # an explicit per-error kind list pins the count; clear it
            # so the axis can scale freely off the single error_kind
            overrides.setdefault("error_kinds", None)
        specs.append(base.replaced(**overrides))
    return specs


@dataclass
class CampaignResult:
    """Ordered run results plus campaign-level aggregates."""

    results: list = field(default_factory=list)
    wall_seconds: float = 0.0
    workers: int = 1
    #: aggregate tile-cache counters at campaign end (None if disabled)
    cache: dict | None = None
    #: campaign-level events (chaos cache corruption, abort reason,
    #: write-back trouble) — mirrors ``RunResult.notes``
    notes: list = field(default_factory=list)
    #: ``on_error="abort"`` stopped the campaign before every spec ran
    aborted: bool = False
    #: SIGINT/stop cut the campaign short (results so far are kept;
    #: a journaled campaign resumes from here with ``--resume``)
    interrupted: bool = False
    #: executor that produced these results ("thread" | "process")
    executor: str = "thread"

    @property
    def n_runs(self) -> int:
        return len(self.results)

    @property
    def n_detected(self) -> int:
        return sum(1 for r in self.results if r.detected)

    @property
    def n_localized(self) -> int:
        return sum(1 for r in self.results if r.localized)

    @property
    def n_fixed(self) -> int:
        return sum(1 for r in self.results if r.fixed)

    @property
    def n_failed(self) -> int:
        """Runs that ended ``failed`` or ``timeout`` (isolated, kept)."""
        return sum(
            1 for r in self.results if r.status in ("failed", "timeout")
        )

    @property
    def n_degraded(self) -> int:
        return sum(1 for r in self.results if r.status == "degraded")

    @property
    def failures(self) -> list:
        """Flat failure view: one record per failed/timed-out run."""
        out = []
        for index, r in enumerate(self.results):
            if r.status in ("failed", "timeout"):
                out.append({
                    "index": index,
                    "design": r.design,
                    "status": r.status,
                    "failures": list(r.failures),
                })
        return out

    def summary_line(self) -> str:
        """The one-line aggregate summary, shared verbatim by the
        ``campaign`` and ``report`` CLI outputs so executor and worker
        count always print consistently."""
        line = (
            f"{self.n_runs} runs, {self.n_detected} detected, "
            f"{self.n_localized} localized, {self.n_fixed} fixed"
        )
        if self.n_failed or self.n_degraded:
            line += (
                f", {self.n_failed} failed, {self.n_degraded} degraded"
            )
        line += (
            f" ({self.wall_seconds:.1f}s, {self.executor} executor, "
            f"{self.workers} worker{'s' if self.workers != 1 else ''})"
        )
        return line

    def to_dict(self) -> dict:
        return {
            "n_runs": self.n_runs,
            "n_detected": self.n_detected,
            "n_localized": self.n_localized,
            "n_fixed": self.n_fixed,
            "n_failed": self.n_failed,
            "n_degraded": self.n_degraded,
            "failures": self.failures,
            "wall_seconds": round(self.wall_seconds, 6),
            "workers": self.workers,
            "cache": self.cache,
            "notes": list(self.notes),
            "aborted": self.aborted,
            "interrupted": self.interrupted,
            "executor": self.executor,
            "results": [r.to_dict() for r in self.results],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CampaignResult":
        return cls(
            results=[RunResult.from_dict(r) for r in data.get("results", [])],
            wall_seconds=data.get("wall_seconds", 0.0),
            workers=data.get("workers", 1),
            cache=data.get("cache"),
            notes=list(data.get("notes", [])),
            aborted=data.get("aborted", False),
            interrupted=data.get("interrupted", False),
            executor=data.get("executor", "thread"),
        )

    def save(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)

    @classmethod
    def load(cls, path: str) -> "CampaignResult":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


#: campaign policies when a run ends ``failed``/``timeout``
ON_ERROR_POLICIES = ("continue", "abort")

#: how campaign runs execute: in-process threads (historical default,
#: bit-identical) or supervised child processes (true parallelism,
#: hard kills, crash isolation)
EXECUTORS = ("thread", "process")


class CampaignRunner:
    """Runs a list of specs, optionally across worker threads or
    supervised worker processes.

    ``executor="thread"`` (default) keeps the historical in-process
    fan-out, bit-identical to prior releases.  ``executor="process"``
    spawns one supervised child per run
    (:func:`repro.resilience.supervisor.run_supervised`): the
    supervisor kills children that blow a hard wall-clock ceiling or
    stop heartbeating, and any worker death becomes a structured
    ``failed`` result with stage ``"worker"`` — subject to the same
    ``on_error`` policy as in-process failures.  Process workers share
    warm tile configurations through the on-disk store under
    ``cache_dir`` (each worker reads entries on demand and writes back
    its new ones atomically).

    A ``journal`` records every completed run as one flushed JSONL
    line; with ``resume=True`` the runner first loads it and skips
    specs whose digest already finished (``ok``/``degraded``),
    re-executing only the rest — failed, timed-out, and never-started
    runs.

    The runner owns its tile caches, one per policy; a caller hands it
    none.  ``"shared"`` runs use the process-wide cache, ``"private"``
    runs share one campaign-local cache (isolated from the rest of the
    process, but warm across the campaign's own runs), and ``"off"``
    runs get none.  Under the thread executor each cache in play is
    backed by the campaign's ``cache_dir`` once up front and written
    back once at the end — inside a ``try/finally``, so a run that dies
    cannot skip persisting the warm entries completed runs accumulated
    — and a spec's own ``cache_dir`` is never read.  Under
    the process executor each worker owns its run's cache and persists
    it to the spec's ``cache_dir``, which defaults to the campaign's.
    ``CampaignResult.cache`` reports the counter delta over the whole
    campaign.

    A thread-executor runner also holds one
    :class:`~repro.api.design.DesignMemo` for its lifetime: each design
    is built on its first run and every later run gets a fork of it,
    the shared golden model and its golden traces.  Process workers
    build their own design, as a single CLI run does.

    Failures are *isolated*: a run that raises (or exhausts its
    retries) becomes a structured ``status="failed"`` result in spec
    order and the campaign keeps going.  ``on_error="abort"`` instead
    stops scheduling after the first failed run (results completed so
    far are kept, the write-back still happens, and
    ``CampaignResult.aborted`` flags the early stop).
    """

    def __init__(
        self,
        workers: int = 1,
        hooks: PipelineHooks | None = None,
        cache_dir: str | None = None,
        on_error: str = "continue",
        executor: str = "thread",
        hard_timeout_s: float | None = None,
        journal: CampaignJournal | str | None = None,
        resume: bool = False,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if on_error not in ON_ERROR_POLICIES:
            raise ValueError(
                f"on_error must be one of {ON_ERROR_POLICIES}, "
                f"got {on_error!r}"
            )
        if executor not in EXECUTORS:
            raise ValueError(
                f"executor must be one of {EXECUTORS}, got {executor!r}"
            )
        if executor == "process" and hooks is not None:
            raise ValueError(
                "hooks observe in-process pipeline stages and cannot "
                "cross a process boundary; use executor='thread' or "
                "drop the hooks"
            )
        if isinstance(journal, str):
            journal = CampaignJournal(journal)
        if resume and journal is None:
            raise ValueError("resume=True requires a journal")
        self.workers = workers
        self.hooks = hooks
        self.cache_dir = cache_dir
        self.on_error = on_error
        self.executor = executor
        #: hard wall-clock kill ceiling per process-executor run
        #: (``None`` derives it from each spec's ``timeout_s``)
        self.hard_timeout_s = hard_timeout_s
        self.journal = journal
        self.resume = resume
        #: the caches this runner owns, one per policy, in first-use order
        self._policy_caches: dict[str, TileConfigCache] = {}
        #: signals in-flight supervised workers to die on interrupt
        self._stop = threading.Event()
        #: designs built once and shared by this runner's thread runs
        self._memo = DesignMemo() if executor == "thread" else None

    def _cache_for(self, spec: RunSpec) -> TileConfigCache | None:
        if spec.cache == "off":
            return None
        cache = self._policy_caches.get(spec.cache)
        if cache is None:
            cache = resolve_tile_cache(spec)
            if self.cache_dir is not None:
                load_tile_cache(self.cache_dir, cache)
            self._policy_caches[spec.cache] = cache
        return cache

    def _run_one(self, spec: RunSpec) -> RunResult:
        return run_spec(spec, hooks=self.hooks,
                        tile_cache=self._cache_for(spec), warm=self._memo)

    def _run_isolated(self, spec: RunSpec) -> RunResult:
        """One spec, never a raise: exceptions that escape the resilient
        executor (cache resolution, result packaging) still come back
        as a structured ``failed`` result."""
        try:
            return self._run_one(spec)
        except Exception as exc:
            from repro.resilience.failure import RunFailure

            return RunResult.from_spec(
                spec, status="failed",
                failures=[
                    RunFailure.from_exception(exc, stage="campaign").to_dict()
                ],
            )

    def _apply_cache_chaos(self, specs: list[RunSpec],
                           notes: list) -> None:
        """Fire any selected cache-file faults against ``cache_dir``.

        Runs just before the final write-back, so that path itself is
        exercised against a hostile file: the save must still produce
        valid files from the in-memory entries.
        """
        from repro.resilience.chaos import (
            CACHE_FILE_KINDS,
            ChaosConfig,
            corrupt_cache_file,
        )
        from repro.tiling.cache import cache_file_path

        seen: set[str] = set()
        for spec in specs:
            cfg = ChaosConfig.coerce(spec.chaos)
            if cfg is None:
                continue
            for fault in cfg.select(spec):
                if fault.kind not in CACHE_FILE_KINDS:
                    continue
                if fault.kind in seen:
                    continue
                seen.add(fault.kind)
                if corrupt_cache_file(
                    cache_file_path(self.cache_dir), fault.kind,
                    seed=cfg.seed,
                ):
                    notes.append(
                        f"chaos: {fault.kind} applied to the persisted "
                        "tile cache before write-back"
                    )

    def _worker_spec(self, spec: RunSpec) -> RunSpec:
        """The spec a supervised worker receives.

        Process workers share warm tile configs only through the
        on-disk store, so the campaign's ``cache_dir`` rides along on
        every cache-enabled spec that did not pin its own.
        """
        if (
            self.cache_dir is not None
            and spec.cache != "off"
            and spec.cache_dir is None
        ):
            return spec.replaced(cache_dir=self.cache_dir)
        return spec

    def _run_supervised(self, spec: RunSpec) -> RunResult:
        from repro.resilience.supervisor import run_supervised

        return run_supervised(
            self._worker_spec(spec),
            hard_timeout_s=self.hard_timeout_s,
            stop_event=self._stop,
        )

    def _journal_append(self, spec: RunSpec, result: RunResult) -> None:
        """Record a finished run — but never an interrupted one.

        A ``WorkerInterrupted`` failure means the supervisor killed the
        child because the *campaign* was stopping, not because the run
        failed; journaling it would make ``--resume`` treat an unstarted
        run as a finished failure.
        """
        if self.journal is None:
            return
        if any(
            f.get("error") == "WorkerInterrupted" for f in result.failures
        ):
            return
        self.journal.append(spec, result)

    def _partition_resume(self, specs: list[RunSpec], notes: list):
        """Split specs into journaled-complete results and pending work."""
        finished: dict[int, RunResult] = {}
        pending: list[tuple[int, RunSpec]] = []
        prior = self.journal.load() if (
            self.resume and self.journal is not None
        ) else {}
        for index, spec in enumerate(specs):
            record = prior.get(spec.digest())
            if record is not None and record.get("status") in (
                "ok", "degraded"
            ):
                try:
                    finished[index] = RunResult.from_dict(record)
                    continue
                except (TypeError, ValueError):
                    pass  # journaled garbage: just re-run the spec
            pending.append((index, spec))
        if finished:
            notes.append(
                f"resume: skipped {len(finished)} journaled run(s), "
                f"{len(pending)} to execute"
            )
        return finished, pending

    def run(self, specs: list[RunSpec]) -> CampaignResult:
        specs = list(specs)
        notes: list = []
        slots, pending = self._partition_resume(specs, notes)
        caches: list[TileConfigCache] = []
        if self.executor == "thread":
            # resolve every cache before the fan-out so each store is
            # attached exactly once
            for _, spec in pending:
                self._cache_for(spec)
            caches = list(self._policy_caches.values())
        aborted = False
        interrupted = False
        t0 = time.perf_counter()

        run_one = (
            self._run_supervised if self.executor == "process"
            else self._run_isolated
        )

        def _collect(index: int, spec: RunSpec,
                     result: RunResult) -> bool:
            """Slot a finished run; True when the campaign must abort."""
            slots[index] = result
            self._journal_append(spec, result)
            # thread-mode runs already counted themselves in run_spec,
            # and process-mode child snapshots merge in the supervisor;
            # the campaign-level view counts every slotted run exactly
            # once regardless of executor
            METRICS.inc("repro_campaign_runs_total", status=result.status)
            if (
                result.status in ("failed", "timeout")
                and self.on_error == "abort"
            ):
                notes.append(
                    f"aborted after run {index} "
                    f"({result.design}: {result.status})"
                )
                return True
            return False

        try:
            if self.workers == 1 or len(pending) <= 1:
                for index, spec in pending:
                    result = run_one(spec)
                    if _collect(index, spec, result):
                        aborted = True
                        break
            else:
                with ThreadPoolExecutor(max_workers=self.workers) as pool:
                    futures = [
                        (index, spec, pool.submit(run_one, spec))
                        for index, spec in pending
                    ]
                    try:
                        for index, spec, future in futures:
                            if (aborted or interrupted) and future.cancel():
                                continue
                            result = future.result()
                            if result.failures and all(
                                f.get("error") == "WorkerInterrupted"
                                for f in result.failures
                            ):
                                continue  # the run never really happened
                            if _collect(index, spec, result) and not aborted:
                                aborted = True
                    except KeyboardInterrupt:
                        interrupted = True
                        self._stop.set()
                        pool.shutdown(wait=False, cancel_futures=True)
        except KeyboardInterrupt:
            interrupted = True
            self._stop.set()
        finally:
            if interrupted:
                notes.append(
                    f"interrupted with {len(slots)}/{len(specs)} run(s) "
                    "complete"
                    + (
                        "; resume with the same journal to finish"
                        if self.journal is not None else ""
                    )
                )
            # the write-back must happen even if the fan-out machinery
            # itself raises: completed runs already paid for their warm
            # entries, and a later campaign should start from them
            if self.executor == "thread" and self.cache_dir is not None:
                self._apply_cache_chaos(specs, notes)
                for cache in caches:
                    try:
                        save_tile_cache(cache, self.cache_dir)
                    except Exception as exc:
                        notes.append(
                            "tile-cache write-back failed: "
                            f"{type(exc).__name__}: {exc}"
                        )
        wall = time.perf_counter() - t0
        results = [slots[i] for i in sorted(slots)]
        executed = [slots[i] for i, _ in pending if i in slots]
        return CampaignResult(
            results=results,
            wall_seconds=wall,
            workers=self.workers,
            cache=self._cache_delta(executed),
            notes=notes,
            aborted=aborted,
            interrupted=interrupted,
            executor=self.executor,
        )

    @staticmethod
    def _cache_delta(results: list[RunResult]) -> dict | None:
        """Campaign cache counters: the sum of the executed runs' own
        deltas (each run counts its replay verdicts whatever the
        executor), with the largest entry count any of them closed on."""
        per_run = [r.cache for r in results if r.cache is not None]
        if not per_run:
            return None
        return cache_summary(
            {k: sum(d[k] for d in per_run) for k in CACHE_COUNTERS},
            max(d["entries"] for d in per_run),
        )

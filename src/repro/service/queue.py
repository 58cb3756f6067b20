"""The daemon's job queue — priorities, digest dedup, crash-safe spool.

Jobs are keyed by :meth:`RunSpec.digest` — the same identity the
campaign journal resumes by — so submitting one spec twice coalesces
onto one job (the second submitter just observes it) unless the caller
asks for a ``fresh`` re-run.  Dispatch order is highest priority first,
FIFO within a priority.

Persistence reuses the journal primitives from
:mod:`repro.api.journal`: every accepted job is appended to a
``pending`` spool before it is queued, and every finished job to a
``results`` :class:`CampaignJournal`, both fsynced JSONL.  A daemon
restart replays both — results pre-populate done jobs (so ``result``
queries keep answering), and any spooled job without a result is
re-queued.  The spool is append-only; "still pending" is defined as
*spooled minus resulted*, so no rewrite-in-place step can tear it.

The queue is the synchronization hub: worker dispatchers block in
:meth:`claim`, clients block in :meth:`wait_for`, and the ``events``
verb streams each job's bounded event buffer as it grows — all off one
condition variable.
"""

from __future__ import annotations

import os
import threading
import time
from collections import deque

from repro.api.journal import _JOURNAL_VERSION, CampaignJournal, JsonlJournal
from repro.api.spec import RunSpec

#: per-job pipeline-event buffer bound; a 9sym debug run emits a few
#: dozen events, a deep multi-error campaign run a few hundred
MAX_JOB_EVENTS = 2000

QUEUED = "queued"
RUNNING = "running"
DONE = "done"


class Job:
    """One unit of service work: a spec, its state, and its artifacts."""

    def __init__(self, spec: RunSpec, priority: int = 0,
                 seq: int = 0, trace: bool = False) -> None:
        self.digest = spec.digest()
        self.spec = spec
        self.priority = priority
        self.seq = seq
        self.trace = trace
        self.state = QUEUED
        self.attempts = 0
        self.result: dict | None = None
        self.warm: dict | None = None
        self.worker: int | None = None
        self.submitted_at = time.time()
        self.finished_at: float | None = None
        #: stage/probe/commit events streamed by the ``events`` verb
        self.events: deque = deque(maxlen=MAX_JOB_EVENTS)
        #: worker-death failures accumulated across re-queues
        self.death_failures: list[dict] = []

    def descriptor(self) -> dict:
        """The job as the ``submit``/``status`` verbs report it."""
        out = {
            "job": self.digest,
            "state": self.state,
            "priority": self.priority,
            "attempts": self.attempts,
            "design": self.spec.design,
            "n_events": len(self.events),
        }
        if self.result is not None:
            out["status"] = self.result.get("status")
        if self.warm is not None:
            out["warm"] = self.warm
        if self.worker is not None:
            out["worker"] = self.worker
        return out


class JobQueue:
    """Priority queue with digest dedup and a persistent spool."""

    def __init__(self, spool_dir: str | None = None) -> None:
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._jobs: dict[str, Job] = {}
        self._ready: list[Job] = []
        self._seq = 0
        self._pending_spool: JsonlJournal | None = None
        self._results: CampaignJournal | None = None
        if spool_dir is not None:
            os.makedirs(spool_dir, exist_ok=True)
            self._pending_spool = JsonlJournal(
                os.path.join(spool_dir, "pending.jsonl")
            )
            self._results = CampaignJournal(
                os.path.join(spool_dir, "results.jsonl")
            )
            self._resume()

    # -- restart resume ------------------------------------------------

    def _resume(self) -> None:
        """Replay the spool: done jobs keep answering, the rest re-queue."""
        finished = self._results.load() if self._results else {}
        with self._lock:
            self._replay(finished)

    def _replay(self, finished: dict) -> None:
        for record in (self._pending_spool.records()
                       if self._pending_spool else []):
            spec_dict = record.get("spec")
            if not isinstance(spec_dict, dict):
                continue
            try:
                spec = RunSpec.from_dict(spec_dict)
            except Exception:
                continue  # malformed spool line; skip, don't crash
            digest = spec.digest()
            if digest in self._jobs:
                continue
            job = Job(spec, priority=int(record.get("priority", 0)),
                      seq=self._seq)
            self._seq += 1
            self._jobs[digest] = job
            if digest in finished:
                job.state = DONE
                job.result = finished[digest]
                job.finished_at = time.time()
            else:
                self._push(job)

    # -- internals (caller holds the lock) -----------------------------

    def _push(self, job: Job) -> None:
        job.state = QUEUED
        self._ready.append(job)
        # highest priority first, FIFO within a priority; re-queued jobs
        # keep their original seq, so they resume near the front
        self._ready.sort(key=lambda j: (-j.priority, j.seq))
        self._cond.notify_all()

    def _spool(self, job: Job) -> None:
        if self._pending_spool is not None:
            self._pending_spool.append_record({
                "v": _JOURNAL_VERSION,
                "digest": job.digest,
                "priority": job.priority,
                "spec": job.spec.to_dict(),
            })

    # -- submission ----------------------------------------------------

    def submit(self, spec: RunSpec, priority: int = 0,
               fresh: bool = False,
               trace: bool = False) -> tuple[Job, bool]:
        """Accept one spec; returns ``(job, deduped)``.

        An existing queued/running job for the same digest always wins
        (the submission coalesces).  A *done* job is returned as-is
        unless ``fresh`` is set, which resets it and re-queues it with
        the resubmitted spec — the path warm-latency measurements use.
        """
        with self._lock:
            job = self._jobs.get(spec.digest())
            if job is not None:
                if job.state == DONE and fresh:
                    # the digest ignores harness fields (chaos,
                    # cache_dir): the resubmitted spec is the one to run
                    job.spec = spec
                    job.state = QUEUED
                    job.priority = priority
                    job.trace = trace
                    job.result = None
                    job.warm = None
                    job.worker = None
                    job.attempts = 0
                    job.finished_at = None
                    job.events.clear()
                    job.death_failures = []
                    self._spool(job)
                    self._push(job)
                    return job, False
                return job, True
            job = Job(spec, priority=priority, seq=self._seq,
                      trace=trace)
            self._seq += 1
            self._jobs[job.digest] = job
            self._spool(job)
            self._push(job)
            return job, False

    # -- dispatch ------------------------------------------------------

    def claim(self, timeout_s: float | None = None) -> Job | None:
        """Block until a job is ready, mark it running, return it."""
        deadline = (time.monotonic() + timeout_s
                    if timeout_s is not None else None)
        with self._lock:
            while not self._ready:
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return None
                self._cond.wait(remaining)
            job = self._ready.pop(0)
            job.state = RUNNING
            job.attempts += 1
            return job

    def requeue(self, job: Job) -> None:
        """Put a running job back (worker died mid-job)."""
        with self._lock:
            self._push(job)

    def finish(self, job: Job, result: dict,
               warm: dict | None = None) -> None:
        """Settle a job with its final result (journaled durably)."""
        with self._lock:
            job.state = DONE
            job.result = result
            job.warm = warm
            job.finished_at = time.time()
            if self._results is not None:
                self._results.append_record({
                    "v": _JOURNAL_VERSION,
                    "digest": job.digest,
                    "status": result.get("status"),
                    "result": result,
                })
            self._cond.notify_all()

    def add_event(self, digest: str, event: dict) -> None:
        """Append one pipeline event to a job's stream buffer."""
        with self._lock:
            job = self._jobs.get(digest)
            if job is not None:
                job.events.append(event)
                self._cond.notify_all()

    # -- observation ---------------------------------------------------

    def get(self, digest: str) -> Job | None:
        with self._lock:
            return self._jobs.get(digest)

    def wait_for(self, digest: str,
                 timeout_s: float | None = None) -> Job | None:
        """Block until the job settles (None on timeout/unknown)."""
        deadline = (time.monotonic() + timeout_s
                    if timeout_s is not None else None)
        with self._lock:
            while True:
                job = self._jobs.get(digest)
                if job is None:
                    return None
                if job.state == DONE:
                    return job
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return None
                self._cond.wait(remaining)

    def events_since(self, digest: str, start: int,
                     timeout_s: float | None = None
                     ) -> tuple[list[dict], int, bool]:
        """Events past index ``start``: ``(new, next_index, done)``.

        Blocks until at least one new event arrives or the job settles;
        the ``events`` verb loops on this to stream live.
        """
        deadline = (time.monotonic() + timeout_s
                    if timeout_s is not None else None)
        with self._lock:
            while True:
                job = self._jobs.get(digest)
                if job is None:
                    return [], start, True
                events = list(job.events)
                if len(events) > start:
                    return events[start:], len(events), job.state == DONE
                if job.state == DONE:
                    return [], start, True
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return [], start, False
                self._cond.wait(remaining)

    def depth(self) -> int:
        with self._lock:
            return len(self._ready)

    def stats(self) -> dict:
        with self._lock:
            states: dict[str, int] = {QUEUED: 0, RUNNING: 0, DONE: 0}
            for job in self._jobs.values():
                states[job.state] = states.get(job.state, 0) + 1
            return {
                "jobs": len(self._jobs),
                "queued": states[QUEUED],
                "running": states[RUNNING],
                "done": states[DONE],
            }

    def snapshot(self) -> list[dict]:
        with self._lock:
            jobs = sorted(self._jobs.values(), key=lambda j: j.seq)
            return [job.descriptor() for job in jobs]

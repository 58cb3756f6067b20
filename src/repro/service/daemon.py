"""The debug-service daemon — socket front end + warm worker pool.

``python -m repro serve --cache-dir CACHE --workers N`` runs one
:class:`ReproService`: a ``socketserver.ThreadingUnixStreamServer``
answering the :mod:`repro.service.protocol` verbs, a
:class:`~repro.service.queue.JobQueue` with a crash-safe spool under
``<cache-dir>/service/``, and ``N`` long-lived
``python -m repro.service.worker`` children.  Each worker is a
:class:`~repro.resilience.supervisor.SupervisedChild`, the same object
:func:`~repro.resilience.supervisor.run_supervised` uses for one-shot
campaign workers, and each job is judged by its ``watch`` — heartbeat
watchdog, per-spec hard wall-clock ceiling, SIGKILL + reap, death
decoding — re-armed per *job* instead of per process lifetime.  This
module keeps only daemon state: readiness, the current job, job and
death counts.

Worker death mid-job is a first-class event, not an error path: the
watch's stage-``"worker"`` :class:`~repro.resilience.failure.RunFailure`
re-queues the job once (``max_requeues``), the worker is respawned, and
only repeated death settles the job as ``status="failed"`` carrying
every death record.  A hard-timeout kill settles immediately as
``status="timeout"`` — a job that blew a 3x wall-clock ceiling once
will blow it again.  An ``error`` event from a worker that stays alive
settles the job as failed and keeps the worker.

Shutdown drains politely: the socket answers ``{"ok": true}`` first,
workers get a ``stop`` line + stdin EOF (finishing their current job),
and anything still queued stays in the spool for the next start —
restart-resume is the spool's whole point.
"""

from __future__ import annotations

import os
import socketserver
import threading
import time
from dataclasses import dataclass

from repro.api.result import RunResult
from repro.api.spec import RunSpec
from repro.errors import ReproError
from repro.obs.metrics import METRICS
from repro.resilience.failure import RunFailure
from repro.resilience.supervisor import (
    DEFAULT_HEARTBEAT_TIMEOUT_S,
    HEARTBEAT_INTERVAL_S,
    SupervisedChild,
    hard_timeout_for,
)
from repro.service import protocol
from repro.service.queue import DONE, Job, JobQueue

#: poll period while waiting on a worker to report ready
_POLL_S = 0.05
#: seconds a fresh worker gets to report ready before its first job
#: is sent anyway (the job's heartbeat watch then judges it)
_READY_S = 120.0
#: seconds a worker gets to finish its current job at shutdown
_DRAIN_S = 30.0


def default_socket_path(cache_dir: str | None = None) -> str:
    """Where the daemon listens unless told otherwise."""
    base = cache_dir if cache_dir is not None else "/tmp"
    return os.path.join(base, "repro-service.sock")


@dataclass
class ServiceConfig:
    """Everything the daemon needs; RunSpec-independent by design."""

    socket_path: str
    cache_dir: str | None = None
    workers: int = 1
    #: spool directory (default ``<cache_dir>/service``); ``None``
    #: without a cache dir → in-memory queue, no restart resume
    spool_dir: str | None = None
    #: worker heartbeat cadence (satellite: no longer hardwired 0.25s)
    heartbeat_interval_s: float = HEARTBEAT_INTERVAL_S
    #: watchdog grace before a silent worker is declared wedged
    heartbeat_timeout_s: float = DEFAULT_HEARTBEAT_TIMEOUT_S
    #: hard per-job wall-clock ceiling override (None → derive from
    #: each spec's ``timeout_s`` exactly like the one-shot supervisor)
    hard_timeout_s: float | None = None
    warm_max_entries: int = 8
    #: worker deaths tolerated per job before it settles as failed
    max_requeues: int = 1

    def __post_init__(self) -> None:
        if self.spool_dir is None and self.cache_dir is not None:
            self.spool_dir = os.path.join(self.cache_dir, "service")
        if self.heartbeat_timeout_s <= self.heartbeat_interval_s:
            raise ReproError(
                f"heartbeat timeout ({self.heartbeat_timeout_s}s) must "
                f"exceed the heartbeat interval "
                f"({self.heartbeat_interval_s}s)"
            )


class WorkerHandle:
    """One resident worker: a :class:`SupervisedChild` plus the
    daemon's bookkeeping for it."""

    def __init__(self, index: int, config: ServiceConfig,
                 queue: JobQueue) -> None:
        self.index = index
        self.config = config
        self.queue = queue
        self.child: SupervisedChild | None = None
        self.ready = threading.Event()
        self.current_job: str | None = None
        self.started_at: float | None = None
        self.jobs_done = 0
        self.deaths = 0

    def spawn(self) -> None:
        self.ready.clear()
        self.child = SupervisedChild("repro.service.worker",
                                     on_event=self._on_event)
        self.started_at = time.monotonic()  # uptime is a duration
        self.child.send({
            "op": "init",
            "cache_dir": self.config.cache_dir,
            "heartbeat_interval_s": self.config.heartbeat_interval_s,
            "warm_max_entries": self.config.warm_max_entries,
        })

    def _on_event(self, event: dict) -> None:
        if event.get("event") == "ready":
            self.ready.set()
        elif event.get("job"):
            # stage/probe/commit/span — stream into the job's buffer
            self.queue.add_event(event["job"], event)

    def wait_ready(self) -> None:
        """Block until the worker reports ready, dies, or
        :data:`_READY_S` passes; the job's watch judges the rest."""
        deadline = time.monotonic() + _READY_S
        while self.alive() and time.monotonic() < deadline:
            if self.ready.wait(_POLL_S):
                return

    def alive(self) -> bool:
        return self.child is not None and self.child.alive()

    def kill(self) -> None:
        if self.child is not None:
            self.child.kill()

    def uptime_s(self) -> float:
        if self.started_at is None:
            return 0.0
        return time.monotonic() - self.started_at

    def stats(self) -> dict:
        return {
            "worker": self.index,
            "pid": self.child.pid if self.child else None,
            "alive": self.alive(),
            "ready": self.ready.is_set(),
            "uptime_s": round(self.uptime_s(), 3),
            "jobs_done": self.jobs_done,
            "deaths": self.deaths,
            "current_job": self.current_job,
        }


class ReproService:
    """The daemon: queue + worker pool + unix-socket request server."""

    def __init__(self, config: ServiceConfig) -> None:
        self.config = config
        self.queue = JobQueue(spool_dir=config.spool_dir)
        self.workers: list[WorkerHandle] = []
        self._dispatchers: list[threading.Thread] = []
        self._stopping = threading.Event()
        self._stop_lock = threading.Lock()
        self._server: socketserver.ThreadingUnixStreamServer | None = None
        self._server_thread: threading.Thread | None = None
        self.started_at = time.time()  # wall clock, display only
        self._started_mono = time.monotonic()  # uptime is a duration

    # -- lifecycle -----------------------------------------------------

    def start(self) -> None:
        """Spawn workers, bind the socket, serve in the background."""
        for index in range(self.config.workers):
            handle = WorkerHandle(index, self.config, self.queue)
            handle.spawn()
            self.workers.append(handle)
            thread = threading.Thread(
                target=self._dispatch_loop, args=(handle,), daemon=True
            )
            thread.start()
            self._dispatchers.append(thread)

        service = self

        class Handler(socketserver.StreamRequestHandler):
            def handle(self) -> None:
                try:
                    request = protocol.read_line(self.rfile)
                except ValueError:
                    self.wfile.write(protocol.encode_line(
                        protocol.error_response("malformed request")
                    ))
                    return
                if request is None:
                    return
                service.handle_request(request, self.wfile)

        sock_dir = os.path.dirname(os.path.abspath(
            self.config.socket_path
        ))
        os.makedirs(sock_dir, exist_ok=True)
        if os.path.exists(self.config.socket_path):
            os.unlink(self.config.socket_path)  # stale socket from a crash
        server = socketserver.ThreadingUnixStreamServer(
            self.config.socket_path, Handler
        )
        server.daemon_threads = True
        self._server = server
        self._server_thread = threading.Thread(
            target=server.serve_forever, daemon=True
        )
        self._server_thread.start()

    def stop(self) -> None:
        """Drain workers, close the socket, keep the spool for resume.

        Every caller returns only once the drain is complete, so the
        foreground process never exits under the ``shutdown`` verb's
        stop thread and leaves a stale socket behind.
        """
        with self._stop_lock:
            if self._stopping.is_set():
                return
            self._stopping.set()
            # polite stop: each worker finishes its current job, exits
            for handle in self.workers:
                if handle.child is not None:
                    handle.child.send({"op": "stop"})
            deadline = time.monotonic() + _DRAIN_S
            for handle in self.workers:
                if handle.child is not None:
                    handle.child.reap(deadline - time.monotonic())
            if self._server is not None:
                self._server.shutdown()
                self._server.server_close()
                if os.path.exists(self.config.socket_path):
                    os.unlink(self.config.socket_path)

    def serve_until_shutdown(self) -> None:
        """Block until a ``shutdown`` verb (or KeyboardInterrupt)."""
        try:
            while not self._stopping.is_set():
                time.sleep(0.2)
        except KeyboardInterrupt:
            pass
        finally:
            self.stop()

    # -- dispatch ------------------------------------------------------

    def _dispatch_loop(self, handle: WorkerHandle) -> None:
        while not self._stopping.is_set():
            job = self.queue.claim(timeout_s=0.2)
            if job is None:
                continue
            if self._stopping.is_set():
                # too late to run it; leave it for the spool to resume
                self.queue.requeue(job)
                return
            self._run_job(handle, job)

    def _respawn(self, handle: WorkerHandle) -> None:
        handle.deaths += 1
        METRICS.inc("repro_worker_restarts_total")
        handle.kill()
        if not self._stopping.is_set():
            handle.spawn()

    def _run_job(self, handle: WorkerHandle, job: Job) -> None:
        if not handle.alive():
            handle.spawn()
        handle.wait_ready()
        handle.current_job = job.digest
        job.worker = handle.index
        handle.child.send({
            "op": "job",
            "job": job.digest,
            "spec": job.spec.to_dict(),
            "attempt": job.attempts,
            "trace": job.trace,
        })
        verdict = handle.child.watch(
            ceiling=hard_timeout_for(job.spec, self.config.hard_timeout_s),
            heartbeat_timeout_s=self.config.heartbeat_timeout_s,
        )
        handle.current_job = None

        if verdict.failure is None:
            handle.jobs_done += 1
            result = verdict.event["result"]
            METRICS.inc("repro_service_jobs_total",
                        status=result.get("status") or "unknown")
            self.queue.finish(job, result, warm=verdict.event.get("warm"))
        elif verdict.status == "timeout":
            # no re-queue: a ceiling blown once will blow again
            self._settle_failed(job, verdict.failure, status="timeout",
                                elapsed=verdict.elapsed_s)
            self._respawn(handle)
        elif handle.alive():
            # the worker survived a job-level error: settle, keep it
            self._settle_failed(job, verdict.failure, status="failed",
                                elapsed=verdict.elapsed_s)
        else:
            self._settle_death(job, verdict.failure, verdict.elapsed_s)
            self._respawn(handle)

    def _settle_death(self, job: Job, failure: RunFailure,
                      elapsed: float) -> None:
        """Re-queue after a death, or fold repeated deaths into failed."""
        job.death_failures.append(failure.to_dict())
        if job.attempts <= self.config.max_requeues:
            self.queue.add_event(job.digest, {
                "event": "requeued", "job": job.digest,
                "attempt": job.attempts, "error": failure.error,
            })
            self.queue.requeue(job)
            return
        self._settle_failed(job, failure, status="failed",
                            elapsed=elapsed)

    def _settle_failed(self, job: Job, failure: RunFailure,
                       status: str, elapsed: float) -> None:
        result = RunResult.from_spec(
            job.spec, status=status, failures=[failure.to_dict()],
            wall_seconds=elapsed,
        ).to_dict()
        if len(job.death_failures) > 1:
            # every death this job caused, oldest first
            result["failures"] = list(job.death_failures)
        METRICS.inc("repro_service_jobs_total", status=status)
        self.queue.finish(job, result)

    # -- request handling ----------------------------------------------

    def handle_request(self, request: dict, wfile) -> None:
        verb = request.get("verb")
        try:
            if verb == "events":
                self._stream_events(request, wfile)
                return
            response = self._answer(verb, request)
        except ReproError as exc:
            response = protocol.error_response(str(exc))
        except Exception as exc:  # noqa: BLE001 — daemon must not die
            response = protocol.error_response(
                f"{type(exc).__name__}: {exc}"
            )
        try:
            wfile.write(protocol.encode_line(response))
        except (BrokenPipeError, OSError):
            pass

    def _answer(self, verb, request: dict) -> dict:
        if verb == "ping":
            return protocol.ok_response(
                pid=os.getpid(), version=protocol.PROTOCOL_VERSION
            )
        if verb == "submit":
            return self._submit(request)
        if verb == "submit-batch":
            return self._submit_batch(request)
        if verb == "status":
            return self._status(request)
        if verb == "result":
            return self._result(request)
        if verb == "stats":
            payload = self.stats()
            if request.get("metrics"):
                payload["metrics_text"] = self.metrics_text()
            return protocol.ok_response(**payload)
        if verb == "shutdown":
            threading.Thread(target=self.stop, daemon=True).start()
            return protocol.ok_response(stopping=True)
        return protocol.error_response(
            f"unknown verb {verb!r}; valid verbs: "
            + ", ".join(protocol.VERBS)
        )

    def _submit(self, request: dict) -> dict:
        spec = RunSpec.from_dict(request.get("spec") or {})
        job, deduped = self.queue.submit(
            spec,
            priority=int(request.get("priority", 0)),
            fresh=bool(request.get("fresh", False)),
            trace=bool(request.get("trace", False)),
        )
        return protocol.ok_response(deduped=deduped, **job.descriptor())

    def _submit_batch(self, request: dict) -> dict:
        from repro.api.campaign import expand_matrix

        base = RunSpec.from_dict(request.get("base") or {})
        specs = expand_matrix(
            base,
            designs=request.get("designs"),
            strategies=request.get("strategies"),
            engines=request.get("engines"),
            error_kinds=request.get("error_kinds"),
            error_seeds=request.get("error_seeds"),
            seeds=request.get("seeds"),
            n_errors=request.get("n_errors"),
        )
        priority = int(request.get("priority", 0))
        fresh = bool(request.get("fresh", False))
        jobs = []
        for spec in specs:
            job, deduped = self.queue.submit(
                spec, priority=priority, fresh=fresh
            )
            jobs.append(dict(deduped=deduped, **job.descriptor()))
        return protocol.ok_response(n_jobs=len(jobs), jobs=jobs)

    def _status(self, request: dict) -> dict:
        digest = request.get("job")
        if digest is None:
            return protocol.ok_response(jobs=self.queue.snapshot())
        job = self.queue.get(digest)
        if job is None:
            return protocol.error_response(f"unknown job {digest!r}")
        return protocol.ok_response(**job.descriptor())

    def _result(self, request: dict) -> dict:
        digest = request.get("job")
        job = self.queue.get(digest) if digest else None
        if job is None:
            return protocol.error_response(f"unknown job {digest!r}")
        timeout_s = request.get("timeout_s")
        if job.state != DONE and timeout_s is not None:
            job = self.queue.wait_for(digest, timeout_s=float(timeout_s))
        if job is None or job.state != DONE:
            return protocol.error_response(
                f"job {digest} not finished"
            )
        payload = job.descriptor()
        payload["result"] = job.result
        payload["warm"] = job.warm
        return protocol.ok_response(**payload)

    def _stream_events(self, request: dict, wfile) -> None:
        digest = request.get("job")
        if digest is None or self.queue.get(digest) is None:
            wfile.write(protocol.encode_line(
                protocol.error_response(f"unknown job {digest!r}")
            ))
            return
        wfile.write(protocol.encode_line(protocol.ok_response(
            streaming=True, job=digest
        )))
        wfile.flush()
        cursor = 0
        while True:
            events, cursor, done = self.queue.events_since(
                digest, cursor, timeout_s=1.0
            )
            try:
                for event in events:
                    wfile.write(protocol.encode_line(event))
                if events:
                    wfile.flush()
                if done:
                    job = self.queue.get(digest)
                    wfile.write(protocol.encode_line({
                        "event": "done", "job": digest,
                        "status": (job.result or {}).get("status")
                        if job else None,
                    }))
                    wfile.flush()
                    return
            except (BrokenPipeError, OSError):
                return  # client hung up; stop streaming
            if self._stopping.is_set():
                return

    def stats(self) -> dict:
        warm = [w for w in (h.stats() for h in self.workers)]
        return {
            "pid": os.getpid(),
            "uptime_s": round(time.monotonic() - self._started_mono, 3),
            "queue": self.queue.stats(),
            "workers": warm,
            "socket": self.config.socket_path,
            "cache_dir": self.config.cache_dir,
            "spool_dir": self.config.spool_dir,
        }

    def metrics_text(self) -> str:
        """The daemon's registry in Prometheus text exposition format.

        Point-in-time gauges (queue depth, live workers) are refreshed
        on every scrape; counters and the merged per-job deltas from
        workers accumulate between scrapes.
        """
        queue_stats = self.queue.stats()
        METRICS.set_gauge("repro_queue_depth", queue_stats["queued"])
        METRICS.set_gauge(
            "repro_service_workers",
            sum(1 for h in self.workers if h.alive()),
        )
        return METRICS.to_prometheus()


def serve(config: ServiceConfig) -> int:
    """Run a daemon in the foreground until shutdown; returns 0."""
    service = ReproService(config)
    service.start()
    print(f"repro service listening on {config.socket_path} "
          f"({config.workers} worker(s), cache_dir="
          f"{config.cache_dir or 'none'})", flush=True)
    service.serve_until_shutdown()
    print("repro service stopped", flush=True)
    return 0

"""The service worker — a supervised child that *loops* over jobs.

``python -m repro.service.worker`` is the looping sibling of the
one-shot ``python -m repro.resilience.supervisor`` child.  Both speak
the supervisor's JSONL vocabulary on stdout — heartbeats, progress
events, one terminal ``result`` or ``error`` event per unit of work —
so the daemon judges each job with the same
:meth:`~repro.resilience.supervisor.SupervisedChild.watch` that
``run_supervised`` uses.  Instead of one spec → exit, this child reads
an ``init`` line, builds its :class:`~repro.service.warm.WarmRegistry`,
reports ``ready``, and then serves ``job`` lines until a ``stop`` line
or stdin EOF.  Everything warm — the forked design bundle, fabric
tables, the warm golden kernel and traces, the tile-config cache —
lives and accumulates here.

Per job the worker:

1. strips spent chaos faults on a re-dispatch (a ``fires: 1``
   ``worker_kill`` already fired when it killed the previous worker;
   re-arming it would kill every retry — only unlimited-``fires``
   faults survive, so "repeated death" stays testable);
2. runs :func:`~repro.api.pipeline.run_spec` with an event-forwarding
   hook (stage/probe/commit lines tagged with the job digest, streamed
   to the daemon as they happen), the registry's tile cache per the
   spec's cache policy, and the registry's design memo as the warm
   source;
3. writes newly produced tile configs back to the store and emits one
   ``result`` event carrying the RunResult, warm-hit telemetry and the
   job's metrics delta.

A job whose pipeline raises still answers (``run_spec`` never throws
for pipeline faults; a protocol-level exception emits an ``error``
event tagged with the job) — the worker only exits on ``stop``, EOF,
or a kill from above.
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time

from repro.api.spec import RunSpec
from repro.obs.metrics import METRICS
from repro.obs.trace import Tracer
from repro.resilience.supervisor import (
    HEARTBEAT_INTERVAL_S,
    emit_error,
    emit_event,
    start_heartbeat,
)


def effective_spec(spec: RunSpec, attempt: int) -> RunSpec:
    """The spec as this dispatch attempt should run it.

    First dispatch runs verbatim.  On a re-dispatch after worker death,
    chaos faults with a finite ``fires`` budget are considered spent —
    the fault that killed the previous worker fired in *that* process,
    and its counter died with it — while ``fires: null`` (unlimited)
    faults stay armed, so a persistently-faulty job keeps dying and
    folds into a failed result at the daemon's re-queue bound.
    """
    if attempt <= 1 or spec.chaos is None:
        return spec
    from repro.resilience.chaos import ChaosConfig

    config = ChaosConfig.coerce(spec.chaos)
    kept = [f.to_dict() for f in config.faults if f.fires is None]
    if not kept:
        return spec.replaced(chaos=None)
    return spec.replaced(chaos={"faults": kept, "seed": config.seed})


class _EventHooks:
    """PipelineHooks → JSONL lines tagged with the job digest."""

    def __init__(self, job: str, lock: threading.Lock) -> None:
        self.job = job
        self.lock = lock

    def _send(self, payload: dict) -> None:
        payload["job"] = self.job
        payload["t"] = round(time.time(), 3)
        try:
            emit_event(payload, self.lock)
        except (TypeError, ValueError):
            pass  # an unserializable event must never fail the run

    def on_stage_start(self, stage, ctx) -> None:
        self._send({"event": "stage_start", "stage": stage.name})

    def on_stage_end(self, stage, ctx, seconds: float) -> None:
        self._send({
            "event": "stage_end", "stage": stage.name,
            "seconds": round(seconds, 6),
        })

    def on_probe(self, ctx, step) -> None:
        self._send({
            "event": "probe",
            "instance": getattr(step, "probe_instance", None),
            "mismatch": getattr(step, "mismatch", None),
            "candidates_before": getattr(step, "candidates_before", None),
            "candidates_after": getattr(step, "candidates_after", None),
        })

    def on_commit(self, ctx, record) -> None:
        effort = getattr(record, "effort", None)
        self._send({
            "event": "commit",
            "description": getattr(record, "description", None),
            "work_units": round(effort.work_units, 3)
            if effort is not None else None,
        })

    def span_listener(self, phase: str, span) -> None:
        """Tracer listener → ``span_start``/``span_end`` event lines.

        Zero-duration instants (commits, cache points) arrive as
        ``span_point``.  Rides the same per-job stream the stage
        events use, so a ``trace: true`` submit sees the full span
        hierarchy live through the daemon's ``events`` verb.
        """
        kind = {"start": "span_start", "instant": "span_point"}
        payload = {
            "event": kind.get(phase, "span_end"),
            "name": span.name,
            "category": span.category,
        }
        if phase != "start":
            payload["status"] = span.status
            payload["seconds"] = round(span.duration_s, 6)
            if span.attrs:
                payload["attrs"] = dict(span.attrs)
        self._send(payload)


def serve_jobs(stdin=None) -> int:
    """The worker loop: init line, ``ready``, then jobs until EOF."""
    from repro.api.design import warm_key
    from repro.api.pipeline import resolve_tile_cache, run_spec
    from repro.service.warm import WarmRegistry

    stdin = stdin if stdin is not None else sys.stdin
    lock = threading.Lock()

    init_line = stdin.readline()
    if not init_line:
        return 0
    try:
        init = json.loads(init_line)
        if init.get("op") != "init":
            raise ValueError(f"expected init, got {init.get('op')!r}")
        interval_s = float(
            init.get("heartbeat_interval_s") or HEARTBEAT_INTERVAL_S
        )
        registry = WarmRegistry(
            cache_dir=init.get("cache_dir"),
            max_entries=int(init.get("warm_max_entries") or 8),
        )
    except BaseException as exc:  # noqa: BLE001 — report, don't crash
        emit_error(exc, lock)
        return 1
    stop = start_heartbeat(lock, interval_s)
    started = time.perf_counter()  # monotonic: uptime is a duration
    emit_event({"event": "ready", "pid": os.getpid()}, lock)

    for line in stdin:
        line = line.strip()
        if not line:
            continue
        job_id = None
        try:
            request = json.loads(line)
            op = request.get("op")
            if op == "stop":
                break
            if op != "job":
                raise ValueError(f"unknown worker op {op!r}")
            job_id = request.get("job")
            spec = RunSpec.from_dict(request["spec"])
            attempt = int(request.get("attempt", 1))
            current = effective_spec(spec, attempt)
            was_warm = registry.designs.would_hit(current)
            hooks = _EventHooks(job_id, lock)
            tracer = (
                Tracer(listener=hooks.span_listener)
                if request.get("trace") else None
            )
            metrics_before = METRICS.snapshot()
            t0 = time.perf_counter()
            result = run_spec(
                current,
                hooks=hooks,
                tile_cache=resolve_tile_cache(
                    current, shared=registry.tile_cache
                ),
                warm=registry.designs,
                tracer=tracer,
            )
            written = registry.write_back()
            emit_event({
                "event": "result",
                "job": job_id,
                "result": result.to_dict(),
                "warm": {
                    "hit": was_warm,
                    "key": list(warm_key(current)),
                    "service_seconds": round(time.perf_counter() - t0, 6),
                    "configs_written": written,
                },
                # per-job *delta*, not a whole-process snapshot: the
                # worker is long-lived, so shipping totals would double-
                # count every earlier job when the daemon merges
                "metrics": METRICS.delta(metrics_before),
            }, lock)
        except BaseException as exc:  # noqa: BLE001
            if isinstance(exc, KeyboardInterrupt):
                break
            emit_error(exc, lock, job=job_id)
    stop.set()
    emit_event({
        "event": "bye",
        "uptime_s": round(time.perf_counter() - started, 3),
        "warm": registry.stats(),
    }, lock)
    return 0


if __name__ == "__main__":
    sys.exit(serve_jobs())

"""The one owner of the cyclic garbage collector's pauses.

Most of what a debug run allocates (the design, its layout, compiled
kernels, cached tile configurations) lives until the run ends, so
collections in the middle of a run rescan the design heap and free
little: each gen-2 pass walks everything alive.  Every pause of the
collector in the process goes through this module:

* :func:`run_scope` — :func:`repro.api.run_spec` holds it around a whole
  run (setup, every attempt, result packaging).  While one run is in
  flight the collector is paused; while runs overlap (a multi-worker
  thread campaign) it is back in the caller's state, so overlapping
  runs never starve it.  Each entry counts
  ``repro_collector_runs_total{mode="paused"}`` when no other run was
  in flight, else ``{mode="shared"}``.
* :func:`paused` — a short pause that holds the collector off whatever
  else is in flight (a tile-cache entry decode).

Both are refcounted under one lock with one saved state: the caller's
state (on or off) when the first scope entered, restored when the last
one leaves, whatever order threads enter and leave in.  Cyclic garbage
a run makes is freed by the first collection after the run.

One ``gc.callbacks`` hook counts every collection and its seconds per
generation.  A collection can start inside any allocation, also while
a thread holds the metrics lock, so the hook only adds to this
module's totals; each scope exit publishes them as
``repro_gc_collections_total{generation}`` and
``repro_gc_seconds_total{generation}``.
"""

from __future__ import annotations

import gc
import threading
import time
from contextlib import contextmanager

from repro.obs.metrics import METRICS

__all__ = ["paused", "run_scope"]

_LOCK = threading.Lock()
#: run scopes and pauses in flight
_runs = 0
_pauses = 0
#: the collector's state when the first scope entered
_saved = True

#: per generation: (collections, seconds) seen by the hook, and the
#: part of it already published to METRICS
_totals = [(0, 0.0)] * 3
_published = [(0, 0.0)] * 3
_started = 0.0


def _on_gc(phase: str, info: dict) -> None:
    global _started
    if phase == "start":
        _started = time.perf_counter()
        return
    generation = info["generation"]
    count, seconds = _totals[generation]
    _totals[generation] = (count + 1,
                           seconds + time.perf_counter() - _started)


gc.callbacks.append(_on_gc)


def _settle() -> None:
    """Set the collector for the scopes now in flight (under _LOCK)."""
    if _saved and not _pauses and _runs != 1:
        gc.enable()
    else:
        gc.disable()


def _publish_gc() -> None:
    for generation in range(3):
        count, seconds = _totals[generation]
        done, done_s = _published[generation]
        if count == done:
            continue
        _published[generation] = (count, seconds)
        label = str(generation)
        METRICS.inc("repro_gc_collections_total", count - done,
                    generation=label)
        METRICS.inc("repro_gc_seconds_total", seconds - done_s,
                    generation=label)


@contextmanager
def _scope(run: bool):
    global _runs, _pauses, _saved
    with _LOCK:
        if not (_runs or _pauses):
            _saved = gc.isenabled()
        shared = run and _runs > 0
        if run:
            _runs += 1
        else:
            _pauses += 1
        _settle()
    if run:
        METRICS.inc("repro_collector_runs_total",
                    mode="shared" if shared else "paused")
    try:
        yield
    finally:
        with _LOCK:
            if run:
                _runs -= 1
            else:
                _pauses -= 1
            _settle()
            if run:
                _publish_gc()


def run_scope():
    """The scope of one run: the collector is paused while this is the
    only run in flight and back in the caller's state while runs
    overlap; the caller's state returns when the last scope leaves."""
    return _scope(run=True)


def paused():
    """The collector is off inside, whatever else is in flight; the
    caller's state returns when the last scope leaves."""
    return _scope(run=False)

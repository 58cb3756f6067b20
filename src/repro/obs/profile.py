"""Opt-in per-stage profiling for the debug pipeline.

:class:`StageProfiler` scopes a :class:`cProfile.Profile` to each
pipeline stage.  ``run_spec(profile=True)`` arms one for the run's
thread (:func:`profiler_scope`), and the pipeline's one stage
boundary, ``run_timed_stage``, opens :func:`maybe_profile` around
every stage body — the same boundary that opens the stage spans.
Stages nest — the diagnose loop wraps localize/correct — and CPython
allows only one active profiler, so the profiler keeps a stack:
entering an inner stage suspends the outer profile and resumes it on
the way out.  A stage's numbers therefore *exclude* its children,
which is the useful attribution: the ``diagnose`` row holds the loop's
own work (its re-detects and in-loop proofs), not localize's.

Per-function self/cumulative times are folded across rounds by
function identity, and :meth:`StageProfiler.result` returns the top-N
rows per stage — the dict that lands in ``RunResult.profile`` and in
the trace file's ``otherData``.

Caveats (also in the README): cProfile is deterministic, not
sampling — expect tens of percent overhead on call-dense stages, so
never combine ``--profile`` with performance measurements; child
processes (campaign process executor, service workers) profile only
their own pipeline work.
"""

from __future__ import annotations

import cProfile
import pstats
import threading
from contextlib import contextmanager, nullcontext

__all__ = ["StageProfiler", "maybe_profile", "profiler_scope"]

#: rows retained per stage in the aggregated result
TOP_N = 15


class StageProfiler:
    """Per-stage cProfile aggregation across rounds."""

    def __init__(self, top_n: int = TOP_N) -> None:
        self.top_n = top_n
        self._stack: list[cProfile.Profile] = []
        # stage -> func -> [ncalls, tottime, cumtime]
        self._stats: dict[str, dict[str, list]] = {}

    @contextmanager
    def scope(self, stage_name: str):
        """Profile the body as ``stage_name``; an enclosing stage's
        profile is suspended until the body exits."""
        if self._stack:
            self._stack[-1].disable()
        profile = cProfile.Profile()
        self._stack.append(profile)
        profile.enable()
        try:
            yield
        finally:
            profile.disable()
            self._stack.pop()
            self._fold(stage_name, profile)
            if self._stack:
                self._stack[-1].enable()

    def _fold(self, stage_name: str, profile: cProfile.Profile) -> None:
        stats = pstats.Stats(profile)
        into = self._stats.setdefault(stage_name, {})
        for (filename, lineno, func), row in stats.stats.items():
            _cc, ncalls, tottime, cumtime, _callers = row
            key = f"{filename}:{lineno}:{func}"
            agg = into.get(key)
            if agg is None:
                into[key] = [ncalls, tottime, cumtime]
            else:
                agg[0] += ncalls
                agg[1] += tottime
                agg[2] += cumtime

    def result(self) -> dict:
        """Top-N per stage by self time, JSON-able."""
        stages = {}
        for stage_name, funcs in self._stats.items():
            top = sorted(funcs.items(),
                         key=lambda item: -item[1][1])[: self.top_n]
            stages[stage_name] = [
                {
                    "func": key,
                    "ncalls": int(values[0]),
                    "tottime_s": round(values[1], 6),
                    "cumtime_s": round(values[2], 6),
                }
                for key, values in top
            ]
        return {"profiler": "cProfile", "stages": stages}


# -- thread-local arming ----------------------------------------------

_ACTIVE = threading.local()
_NULL_SCOPE = nullcontext()


@contextmanager
def profiler_scope(profiler: StageProfiler | None):
    """``with profiler_scope(profiler):`` — arm for the dynamic extent."""
    previous = getattr(_ACTIVE, "profiler", None)
    _ACTIVE.profiler = profiler
    try:
        yield profiler
    finally:
        _ACTIVE.profiler = previous


def maybe_profile(stage_name: str):
    """The armed profiler's scope for one stage, a no-op otherwise."""
    profiler = getattr(_ACTIVE, "profiler", None)
    if profiler is None:
        return _NULL_SCOPE
    return profiler.scope(stage_name)

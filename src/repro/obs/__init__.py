"""``repro.obs`` — dependency-free observability for the debug stack.

Three cooperating pieces, all standard-library only:

* :mod:`repro.obs.trace` — structured tracing: nested spans
  (run → stage → round → probe/commit/SAT-solve/CEGIS-iteration)
  exportable as Chrome ``trace_event`` JSON or a rendered span tree;
* :mod:`repro.obs.metrics` — the process-wide
  :data:`~repro.obs.metrics.METRICS` registry of labeled
  counters/gauges/histograms with snapshot/merge/delta movement and
  Prometheus text exposition;
* :mod:`repro.obs.profile` — opt-in per-stage cProfile aggregation
  landing in ``RunResult.profile``.

Stage spans and profile scopes both open at the pipeline's one stage
boundary (``repro.api.pipeline.run_timed_stage``), armed per thread by
``run_spec(tracer=..., profile=...)``.  Everything is zero-cost when
disarmed: tracing and profiling each check one thread-local, and
metrics increment only at coarse pipeline events.
"""

from repro.obs.metrics import METRICS, Histogram, MetricsRegistry
from repro.obs.profile import StageProfiler, maybe_profile, profiler_scope
from repro.obs.trace import (
    Span,
    Tracer,
    active_tracer,
    maybe_instant,
    maybe_set_attrs,
    maybe_span,
    render_chrome_tree,
    render_span_tree,
    set_active_tracer,
    tracer_scope,
)

__all__ = [
    "METRICS",
    "Histogram",
    "MetricsRegistry",
    "Span",
    "StageProfiler",
    "Tracer",
    "active_tracer",
    "maybe_instant",
    "maybe_profile",
    "maybe_set_attrs",
    "maybe_span",
    "profiler_scope",
    "render_chrome_tree",
    "render_span_tree",
    "set_active_tracer",
    "tracer_scope",
]

"""Service-grade substrate for the run path: failure isolation,
cooperative budgets, a graceful-degradation ladder, and a deterministic
chaos harness.

The in-process half — structured :class:`RunFailure` records,
cooperative deadlines, retries and degradation, deterministic chaos —
landed first; :mod:`repro.resilience.supervisor` adds the hard half:
campaign runs and service jobs executed in spawned child processes
whose crashes, hangs, and OOM-kills fold back into the same structured
failure taxonomy (stage ``"worker"``) instead of taking the caller
down.
Every failure mode stays exercisable in CI
(:mod:`repro.resilience.chaos`, including ``worker_kill`` /
``worker_hang``).

The supervisor is not re-exported here: it doubles as the one-shot
child's ``python -m`` entry point, which must not be imported by its
own package before it runs.
"""

from repro.resilience.budget import (
    Deadline,
    active_deadline,
    backoff_seconds,
    check_deadline,
    clamp_backoff,
    deadline_scope,
)
from repro.resilience.chaos import (
    CHAOS_KINDS,
    WORKER_KINDS,
    ChaosConfig,
    ChaosFault,
    ChaosInjector,
    chaos_scope,
    chaos_stage_event,
    corrupt_cache_file,
    in_supervised_worker,
)
from repro.resilience.degrade import DEGRADATION_LADDER, next_degraded
from repro.resilience.failure import (
    RUN_STATUSES,
    WORKER_STAGE,
    RunFailure,
    traceback_digest,
)

__all__ = [
    "CHAOS_KINDS",
    "ChaosConfig",
    "ChaosFault",
    "ChaosInjector",
    "DEGRADATION_LADDER",
    "Deadline",
    "RUN_STATUSES",
    "RunFailure",
    "WORKER_KINDS",
    "WORKER_STAGE",
    "active_deadline",
    "backoff_seconds",
    "chaos_scope",
    "chaos_stage_event",
    "check_deadline",
    "clamp_backoff",
    "corrupt_cache_file",
    "deadline_scope",
    "in_supervised_worker",
    "next_degraded",
    "traceback_digest",
]

"""Deterministic chaos harness — fault injection for the *infrastructure*.

The paper injects faults into designs and asserts the debug loop finds
them; this module turns the same philosophy on the debug stack itself.
A :class:`ChaosConfig` (carried on ``RunSpec.chaos`` / ``--chaos``)
deterministically injects infrastructure faults so CI can assert that
every failure mode yields a structured ``failed`` / ``degraded`` /
``timeout`` result — never a crashed campaign:

* ``exception`` — raise :class:`~repro.errors.ChaosError` at the start
  of a chosen pipeline stage (a dying campaign worker);
* ``hang`` — busy-wait at a stage boundary until the cooperative
  deadline trips (exercises the budget machinery; without an armed
  deadline the hang simply delays ``hang_s`` seconds and continues);
* ``replay_reject`` — deny every tile-configuration cache replay as if
  apply-time verification had rejected it (forces the fresh-P&R rung
  of the degradation ladder).  It fires through the armed
  :class:`ChaosInjector` at the one verification point
  (:func:`repro.tiling.manager.replay_or_compute`), for every replay of
  the run whatever ``fires`` says;
* ``cache_truncate`` / ``cache_corrupt`` — damage the persisted tile
  cache on disk (truncation / deterministic byte flip of a seed-chosen
  store entry), proving that reading it quarantines it and recomputes
  instead of crashing;
* ``worker_kill`` / ``worker_hang`` — assassinate a supervised campaign
  worker *process* mid-stage (``SIGKILL`` self / ``SIGSTOP`` self, so
  heartbeats stop), proving the supervisor converts worker death into a
  structured ``RunFailure`` with stage ``"worker"``.  Outside a
  supervised worker (thread executor) these kinds are inert — an
  in-process kill would take the whole campaign down, which is exactly
  the failure mode the process executor exists to contain.

Everything is keyed by seed: fault selection hashes
``(config seed, spec seed, error seed, design)`` so a fault fires for
the same runs of a campaign on every execution, and a corrupted byte
lands at the same offset.  Faults default to firing **once per run**
(``fires: 1``) so a retry after an injected failure can succeed —
set ``fires: null`` for a fault that never goes away.
"""

from __future__ import annotations

import os
import signal
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.errors import ChaosError, SpecError
from repro.resilience.budget import check_deadline
from repro.rng import derive_seed

#: every injectable fault kind
CHAOS_KINDS = (
    "exception", "hang", "replay_reject", "cache_truncate", "cache_corrupt",
    "worker_kill", "worker_hang",
)
#: kinds that fire at pipeline stage boundaries
PIPELINE_KINDS = ("exception", "hang")
#: kinds that damage the persisted cache file
CACHE_FILE_KINDS = ("cache_truncate", "cache_corrupt")
#: kinds that assassinate a supervised worker process mid-stage
WORKER_KINDS = ("worker_kill", "worker_hang")

#: environment marker the supervisor sets in worker children; worker
#: kinds only fire when it is present (see :func:`in_supervised_worker`)
WORKER_ENV = "REPRO_SUPERVISED_WORKER"


def in_supervised_worker() -> bool:
    """True inside a process spawned by the campaign supervisor."""
    return bool(os.environ.get(WORKER_ENV))


#: pipeline stages a chaos fault or a per-stage budget
#: (``RunSpec.stage_timeouts``) may target
STAGE_NAMES = ("detect", "localize", "correct", "verify", "diagnose")

#: spec fields a fault's ``match`` clause may constrain
_MATCH_FIELDS = (
    "design", "strategy", "engine", "error_kind", "error_seed", "seed",
    "n_errors",
)


@dataclass(frozen=True)
class ChaosFault:
    """One injectable fault (see module docstring for the kinds)."""

    kind: str
    #: pipeline stage the fault targets (pipeline kinds only)
    stage: str = "localize"
    #: how long a ``hang`` stalls when no deadline interrupts it
    hang_s: float = 30.0
    #: deterministic firing probability in [0, 1]
    probability: float = 1.0
    #: spec-field → allowed values; empty = every spec matches
    match: dict = field(default_factory=dict)
    #: times the fault may trigger per run (``None`` = unlimited)
    fires: int | None = 1

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "stage": self.stage,
            "hang_s": self.hang_s,
            "probability": self.probability,
            "match": {k: list(v) for k, v in self.match.items()},
            "fires": self.fires,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ChaosFault":
        if not isinstance(data, dict):
            raise SpecError(f"a chaos fault must be an object, got {data!r}")
        kind = data.get("kind")
        if kind not in CHAOS_KINDS:
            raise SpecError(
                f"unknown chaos kind {kind!r}; valid kinds: "
                + ", ".join(CHAOS_KINDS)
            )
        stage = data.get("stage", "localize")
        if stage not in STAGE_NAMES:
            raise SpecError(
                f"unknown chaos stage {stage!r}; valid stages: "
                + ", ".join(STAGE_NAMES)
            )
        hang_s = data.get("hang_s", 30.0)
        if not (isinstance(hang_s, (int, float)) and hang_s > 0):
            raise SpecError("chaos hang_s must be a positive number")
        probability = data.get("probability", 1.0)
        if not (
            isinstance(probability, (int, float)) and 0 <= probability <= 1
        ):
            raise SpecError("chaos probability must lie in [0, 1]")
        match = data.get("match", {})
        if not isinstance(match, dict):
            raise SpecError("chaos match must be an object")
        for key, values in match.items():
            if key not in _MATCH_FIELDS:
                raise SpecError(
                    f"chaos match field {key!r} not supported; valid "
                    "fields: " + ", ".join(_MATCH_FIELDS)
                )
            if not isinstance(values, (list, tuple)):
                raise SpecError(
                    f"chaos match values for {key!r} must be a list"
                )
        fires = data.get("fires", 1)
        if fires is not None and (
            not isinstance(fires, int) or fires < 1
        ):
            raise SpecError("chaos fires must be an int >= 1 or null")
        unknown = sorted(
            set(data) - {"kind", "stage", "hang_s", "probability",
                         "match", "fires"}
        )
        if unknown:
            raise SpecError(f"unknown chaos fault fields {unknown}")
        return cls(
            kind=kind, stage=stage, hang_s=float(hang_s),
            probability=float(probability),
            match={k: tuple(v) for k, v in match.items()},
            fires=fires,
        )

    def matches(self, spec, config_seed: int, index: int) -> bool:
        """Deterministic: does this fault fire for ``spec``?"""
        for key, values in self.match.items():
            if getattr(spec, key) not in values:
                return False
        if self.probability >= 1.0:
            return True
        if self.probability <= 0.0:
            return False
        frac = derive_seed(
            config_seed, "chaos", index, spec.design, spec.seed,
            spec.error_seed,
        ) % 1_000_000 / 1_000_000.0
        return frac < self.probability


@dataclass(frozen=True)
class ChaosConfig:
    """A seedable set of faults, as carried on ``RunSpec.chaos``."""

    faults: tuple = ()
    seed: int = 0

    @classmethod
    def coerce(cls, value) -> "ChaosConfig | None":
        """Accept None, a config, a fault dict, a fault list, or a
        ``{"faults": [...], "seed": n}`` object (raising
        :class:`~repro.errors.SpecError` on anything malformed)."""
        if value is None:
            return None
        if isinstance(value, cls):
            return value
        if isinstance(value, dict) and "kind" in value:
            value = {"faults": [value]}
        if isinstance(value, (list, tuple)):
            value = {"faults": list(value)}
        if not isinstance(value, dict):
            raise SpecError(
                f"chaos must be a fault object, a fault list, or a "
                f"config object, got {type(value).__name__}"
            )
        unknown = sorted(set(value) - {"faults", "seed"})
        if unknown:
            raise SpecError(f"unknown chaos config fields {unknown}")
        seed = value.get("seed", 0)
        if not isinstance(seed, int):
            raise SpecError("chaos seed must be an int")
        raw = value.get("faults", [])
        if not isinstance(raw, (list, tuple)) or not raw:
            raise SpecError("chaos faults must be a non-empty list")
        return cls(
            faults=tuple(ChaosFault.from_dict(f) for f in raw), seed=seed
        )

    def select(self, spec) -> list[ChaosFault]:
        """The faults that fire for this spec, deterministically."""
        return [
            fault for index, fault in enumerate(self.faults)
            if fault.matches(spec, self.seed, index)
        ]


# ----------------------------------------------------------------------
# pipeline-stage injection (thread-local, armed per run by the executor)
# ----------------------------------------------------------------------

_SCOPE = threading.local()


class ChaosInjector:
    """Per-run firing state for a spec's selected pipeline and replay
    faults.

    Created once per ``run_spec`` call and shared across retry attempts
    so a ``fires: 1`` fault hits the first attempt and lets the retry
    through — the shape every real transient infrastructure fault has.
    """

    def __init__(self, faults) -> None:
        self.faults = [
            f for f in faults if f.kind in PIPELINE_KINDS + WORKER_KINDS
        ]
        self._remaining = {
            id(f): f.fires for f in self.faults if f.fires is not None
        }
        #: (stage, kind) pairs that actually triggered
        self.fired: list = []
        #: a ``replay_reject`` fault denies every cache replay of the run
        self.rejects_replays = any(f.kind == "replay_reject" for f in faults)
        #: replays denied so far, over every attempt of the run
        self.denied = 0

    def deny_replay(self) -> bool:
        """Called where a stored configuration would be verified: True
        (and counted) when a ``replay_reject`` fault denies it."""
        if self.rejects_replays:
            self.denied += 1
        return self.rejects_replays

    def stage_event(self, stage: str) -> None:
        """Called by the pipeline at the start of every stage."""
        for fault in self.faults:
            if fault.stage != stage:
                continue
            if fault.kind in WORKER_KINDS and not in_supervised_worker():
                # an in-process kill would take the whole campaign down;
                # worker assassination is only meaningful under the
                # process executor's supervision
                continue
            remaining = self._remaining.get(id(fault))
            if remaining is not None:
                if remaining <= 0:
                    continue
                self._remaining[id(fault)] = remaining - 1
            self.fired.append((stage, fault.kind))
            if fault.kind == "exception":
                raise ChaosError(
                    f"chaos: injected worker exception at stage {stage!r}"
                )
            if fault.kind == "worker_kill":
                # instant, uncatchable death — the OOM-killer's signature
                os.kill(os.getpid(), signal.SIGKILL)
            if fault.kind == "worker_hang":
                # freeze the whole process, heartbeat thread included,
                # so the supervisor's lost-heartbeat detection must fire
                os.kill(os.getpid(), signal.SIGSTOP)
                continue  # resumed (SIGCONT) runs carry on
            self._hang(fault, stage)

    @staticmethod
    def _hang(fault: ChaosFault, stage: str) -> None:
        """Stall until the armed deadline trips (or ``hang_s`` passes)."""
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < fault.hang_s:
            check_deadline(f"chaos.hang@{stage}")
            time.sleep(0.002)


@contextmanager
def chaos_scope(injector: ChaosInjector | None):
    """Arm ``injector`` for the enclosed pipeline execution."""
    if injector is None:
        yield
        return
    previous = getattr(_SCOPE, "injector", None)
    _SCOPE.injector = injector
    try:
        yield
    finally:
        _SCOPE.injector = previous


def chaos_stage_event(stage: str) -> None:
    """Pipeline hook point: fire any armed fault targeting ``stage``."""
    injector = getattr(_SCOPE, "injector", None)
    if injector is not None:
        injector.stage_event(stage)


def replay_denied() -> bool:
    """Replay hook point: does an armed ``replay_reject`` fault deny
    this stored configuration?"""
    injector = getattr(_SCOPE, "injector", None)
    return injector is not None and injector.deny_replay()


# ----------------------------------------------------------------------
# cache faults
# ----------------------------------------------------------------------

def corrupt_cache_file(path: str, kind: str, seed: int = 0) -> str | None:
    """Deterministically damage the persisted cache at ``path``.

    ``path`` may be a single file (damaged directly) or a
    content-addressed store directory, in which case one seed-chosen
    entry file takes the damage — the lookup that reads it must
    quarantine it and recompute that digest only.  ``cache_truncate``
    halves the target file; ``cache_corrupt`` flips one seed-chosen
    byte.  Returns the damaged file's path, or None (no-op) when there
    is nothing to corrupt — a cold start.
    """
    if kind not in CACHE_FILE_KINDS:
        raise ValueError(f"not a cache fault kind: {kind!r}")
    if os.path.isdir(path):
        from repro.tiling.cache import TileConfigStore

        entries = TileConfigStore(path).entry_files()
        if not entries:
            return None
        target = entries[
            derive_seed(seed, "chaos.cache_target") % len(entries)
        ]
        return corrupt_cache_file(target, kind, seed=seed)
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError:
        return None
    if not blob:
        return None
    if kind == "cache_truncate":
        blob = blob[: max(1, len(blob) // 2)]
    else:
        offset = derive_seed(seed, "chaos.cache_corrupt") % len(blob)
        blob = (
            blob[:offset]
            + bytes([blob[offset] ^ 0xFF])
            + blob[offset + 1:]
        )
    with open(path, "wb") as fh:
        fh.write(blob)
    return path

"""`RunResult` — the JSON-serializable outcome of one pipeline run.

Everything a benchmark, a campaign aggregator, or a later process needs
from a finished run, in plain-JSON types: verdict flags, the final
candidate set, the full probe trajectory, per-stage and per-phase
timings, effort snapshots, and the tile-cache delta.  ``to_dict`` /
``from_dict`` round-trip every field, so results files written by
`python -m repro campaign` can be re-loaded and re-analyzed without the
objects that produced them.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields


@dataclass
class RunResult:
    """One run's serializable outcome (see module docstring)."""

    #: the spec that produced this run (``RunSpec.to_dict`` form)
    spec: dict | None = None
    #: terminal state: "ok" | "degraded" | "failed" | "timeout"
    #: (see :data:`repro.resilience.failure.RUN_STATUSES`)
    status: str = "ok"
    #: per-attempt :class:`repro.resilience.failure.RunFailure` records
    #: (empty for a clean run; non-empty whenever an attempt died or
    #: timed out, even if a retry later succeeded)
    failures: list = field(default_factory=list)
    #: degradation-ladder notes ({"field", "from", "to", "stage", ...})
    #: — every fallback the run survived on, never silently swallowed
    degradations: list = field(default_factory=list)
    #: attempts consumed (1 + retries actually taken)
    attempts: int = 1
    design: str = ""
    strategy: str = ""
    engine: str = ""
    error_kind: str = ""
    error_instance: str = ""
    error_detail: str = ""
    #: how many errors were injected (the fields above describe the
    #: first; ``errors`` describes all of them)
    n_errors_injected: int = 1
    #: every injected error: {kind, instance, detail}, injection order
    errors: list = field(default_factory=list)
    detected: bool = False
    #: every injected error's instance appeared in the candidate set of
    #: some diagnosis round (single-fault: the historical meaning)
    localized: bool = False
    #: injected instances recovered by localization, sorted
    errors_found: list = field(default_factory=list)
    #: per-round diagnose→fix→re-detect records (RoundRecord.to_dict)
    rounds: list = field(default_factory=list)
    n_rounds: int = 0
    #: mismatches left on the stimulus after the last round's fix
    residual_mismatches: int = 0
    fixed: bool = False
    #: bounded-equivalence verdict from ``verify="prove"|"both"``
    #: (None when the proof never ran)
    proved: bool | None = None
    #: :meth:`repro.sat.equiv.ProofResult.to_dict` of the verify proof
    proof: dict | None = None
    #: per-cycle input words exciting the residual bug, if proof failed
    counterexample: list | None = None
    #: the compiled kernel reproduced the counterexample's mismatch
    counterexample_confirmed: bool | None = None
    #: CEGIS repair description (``correction="cegis"`` runs only;
    #: first success — later rounds' repairs are in ``corrections``)
    correction: dict | None = None
    #: per-round CEGIS repair descriptions
    corrections: list = field(default_factory=list)
    #: candidates eliminated by SAT pruning (``"sat"`` strategy runs),
    #: summed over rounds
    n_sat_eliminated: int = 0
    #: final candidate instances of the last round, sorted
    candidates: list = field(default_factory=list)
    #: per-probe records: probe / mismatch / candidates before & after
    #: (+ the 1-based diagnosis round), concatenated across rounds
    probe_trajectory: list = field(default_factory=list)
    n_probes: int = 0
    n_commits: int = 0
    n_commit_cache_hits: int = 0
    #: {"stages": {stage: seconds}, "localization": {phase: seconds}}
    timings: dict = field(default_factory=dict)
    #: {"initial": EffortMeter.snapshot(), "debug": ...}; ``initial``
    #: meters the untiled placement alone for ``tiled`` and ``sat`` (they
    #: never route it) and its placement and routing for ``incremental``
    #: and ``quick_eco``; ``debug`` sums the strategy's commits
    effort: dict = field(default_factory=dict)
    #: tile-cache counter delta over this run (None when cache is off)
    cache: dict | None = None
    #: per-stage cProfile top-N aggregation (``--profile`` runs only;
    #: :meth:`repro.obs.StageProfiler.result` form)
    profile: dict | None = None
    notes: list = field(default_factory=list)
    wall_seconds: float = 0.0

    # -- construction --------------------------------------------------

    @classmethod
    def from_context(cls, ctx, wall_seconds: float = 0.0,
                     cache: dict | None = None, status: str = "ok",
                     failures: list | None = None,
                     degradations: list | None = None,
                     attempts: int = 1,
                     profile: dict | None = None) -> "RunResult":
        """Package a finished :class:`~repro.api.pipeline.RunContext`.

        ``status``/``failures``/``degradations``/``attempts`` carry the
        resilient executor's verdict; a partially-executed context (a
        timed-out or failed run) packages cleanly — whatever stages
        completed contribute their trajectories and timings.
        """
        trajectory = []
        loc_timings: dict = {}
        n_probes = 0
        n_sat_eliminated = 0
        for one in ctx.localizations:
            trajectory.extend(
                {
                    "probe": s.probe_instance,
                    "mismatch": s.mismatch,
                    "candidates_before": s.candidates_before,
                    "candidates_after": s.candidates_after,
                    "round": one.round,
                }
                for s in one.steps
            )
            n_probes += one.n_probes
            n_sat_eliminated += one.sat_eliminated
            for key, value in one.timings.items():
                loc_timings[key] = loc_timings.get(key, 0.0) + value
        loc_timings = {k: round(v, 6) for k, v in loc_timings.items()}
        loc = ctx.localization
        candidates = sorted(loc.candidates) if loc is not None else []
        errors = [
            {"kind": e.kind, "instance": e.instance, "detail": e.detail}
            for e in ctx.errors
        ]
        rounds = [r.to_dict() for r in ctx.rounds]
        first = ctx.errors[0] if ctx.errors else None
        return cls(
            spec=ctx.spec.to_dict(),
            status=status,
            failures=list(failures or []),
            degradations=list(degradations or []),
            attempts=attempts,
            design=ctx.spec.design_label,
            strategy=ctx.strategy.name,
            engine=ctx.spec.engine,
            error_kind=first.kind if first else "",
            error_instance=first.instance if first else "",
            error_detail=first.detail if first else "",
            n_errors_injected=len(errors) or 1,
            errors=errors,
            detected=ctx.detected,
            localized=ctx.localized_correctly,
            errors_found=sorted(ctx.errors_found),
            rounds=rounds,
            n_rounds=len(rounds),
            residual_mismatches=len(ctx.remaining),
            fixed=ctx.fixed,
            proved=ctx.proved,
            proof=ctx.proof,
            counterexample=ctx.counterexample,
            counterexample_confirmed=ctx.counterexample_confirmed,
            correction=ctx.correction_info,
            corrections=list(ctx.corrections),
            n_sat_eliminated=n_sat_eliminated,
            candidates=candidates,
            probe_trajectory=trajectory,
            n_probes=n_probes,
            n_commits=len(ctx.strategy.commit_history),
            n_commit_cache_hits=ctx.strategy.cache_hits,
            timings={
                "stages": {
                    k: round(v, 6) for k, v in ctx.stage_seconds.items()
                },
                "localization": loc_timings,
            },
            effort={
                "initial": ctx.initial_effort.snapshot(),
                "debug": ctx.strategy.total_effort.snapshot(),
            },
            cache=cache,
            profile=profile,
            notes=list(ctx.notes),
            wall_seconds=round(wall_seconds, 6),
        )

    @classmethod
    def from_spec(cls, spec, wall_seconds: float = 0.0,
                  **fields) -> "RunResult":
        """A spec-complete result for a run with no context to package.

        Used when no :class:`RunContext` exists: the design build
        failed, the campaign caught an escaped exception, or a worker
        process died.  Campaign aggregation still sees a structurally
        complete record; ``fields`` fill the rest (``status``,
        ``failures``, ...).
        """
        return cls(
            spec=spec.to_dict(),
            design=spec.design_label,
            strategy=spec.strategy,
            engine=spec.engine,
            error_kind=spec.error_kind,
            wall_seconds=round(wall_seconds, 6),
            **fields,
        )

    # -- derived views -------------------------------------------------

    @property
    def completed(self) -> bool:
        """The pipeline ran to the end (possibly on a fallback path)."""
        return self.status in ("ok", "degraded")

    @property
    def localization_seconds(self) -> float:
        """Localization compute time — everything but the P&R commits."""
        loc = self.timings.get("localization", {})
        return sum(v for k, v in loc.items() if k != "commit")

    @property
    def commit_seconds(self) -> float:
        return self.timings.get("localization", {}).get("commit", 0.0)

    def trajectory_key(self) -> list:
        """Hashable probe-trajectory view for bit-identity comparisons."""
        return [
            (p["probe"], p["mismatch"], p["candidates_before"],
             p["candidates_after"])
            for p in self.probe_trajectory
        ]

    # -- serialization -------------------------------------------------

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "RunResult":
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(
                f"unknown result fields {unknown}; valid fields: "
                + ", ".join(sorted(known))
            )
        return cls(**data)

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "RunResult":
        return cls.from_dict(json.loads(text))

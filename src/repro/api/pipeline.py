"""The staged debug pipeline behind every entry point.

The paper's flow is four stages over one shared :class:`RunContext`:

* :class:`DetectStage` — inject the error set, build the initial
  implementation, emulate against the golden model (steps 1-3, 21);
* :class:`LocalizeStage` — tile (steps 4-8), then cone bisection with
  observation-point commits (steps 16-19);
* :class:`CorrectStage` — produce and commit one round's fix
  (steps 11-15, 20);
* :class:`VerifyStage` — re-emulate; the fix must clear every mismatch.

Between detection and verification sits the **diagnose→fix→re-detect
loop** (:class:`DiagnoseLoop`): localize against the current round's
mismatches, correct the best candidate, re-run detection, and iterate
until the design is clean or the round budget is exhausted.  A
single-fault run takes exactly one round and reproduces the historical
single-pass pipeline bit-for-bit; ``n_errors > 1`` runs peel one fault
per round (or several at once, when CEGIS lands a joint repair),
retiring the previous round's stale observation points before new
probes go in.

`EmulationDebugSession.run`, the `python -m repro` CLI, and the
campaign runner all execute these same stage objects, which is what
keeps the legacy entry points bit-identical to the facade: there is
only one implementation of the loop.

Observers subclass :class:`PipelineHooks` and receive
``on_stage_start`` / ``on_stage_end`` / ``on_probe`` / ``on_commit``
events (localize/correct fire once per round), so progress reporting,
benchmarks, and tests no longer reach into strategy or localizer
internals.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.arch.device import Device
from repro.debug.correct import apply_correction
from repro.debug.detect import Mismatch, detect_on_layout
from repro.debug.errors import ErrorRecord, inject_errors
from repro.debug.instrument import remove_observation_points
from repro.debug.localize import ConeLocalizer, LocalizationResult
from repro.debug.strategies import BaseStrategy, make_strategy
from repro.debug.testgen import random_stimulus
from repro.netlist.core import Netlist
from repro.netlist.validate import check_netlist
from repro.errors import DeadlineExceeded
from repro.obs.metrics import METRICS
from repro.obs.profile import ProfilingHooks, StageProfiler
from repro.obs.trace import TracingHooks, maybe_span, tracer_scope
from repro.pnr.effort import EffortMeter
from repro.resilience.budget import Deadline, check_deadline, deadline_scope
from repro.resilience.chaos import chaos_stage_event
from repro.synth.pack import PackedDesign, refresh_block_nets
from repro.tiling.cache import DEFAULT_TILE_CACHE, TileConfigCache
from repro.tiling.eco import ChangeSet

#: sentinel for "resolve the tile cache from the spec's policy"
_UNSET = object()


class PipelineHooks:
    """Observer base class — subclass and override what you need."""

    def on_stage_start(self, stage: "Stage", ctx: "RunContext") -> None:
        """A stage is about to run."""

    def on_stage_end(self, stage: "Stage", ctx: "RunContext",
                     seconds: float) -> None:
        """A stage finished (``seconds`` of wall clock)."""

    def on_probe(self, ctx: "RunContext", step) -> None:
        """One localization probe got its verdict (a ``ProbeStep``)."""

    def on_commit(self, ctx: "RunContext", record) -> None:
        """A physical-design commit landed (a ``CommitRecord``)."""


@dataclass
class RoundRecord:
    """One diagnose→fix→re-detect round of the outer loop."""

    round: int
    #: mismatches the round started from
    n_mismatches: int
    #: failing outputs the round's localization explained / deferred
    group_outputs: list = field(default_factory=list)
    deferred_outputs: list = field(default_factory=list)
    n_probes: int = 0
    #: final candidate instances of the round, sorted
    candidates: list = field(default_factory=list)
    #: instances corrected this round (error sites or CEGIS retables)
    corrected: list = field(default_factory=list)
    #: candidates removed by SAT pruning this round
    sat_eliminated: int = 0
    #: stale observation points retired before this round's probes
    probes_retired: int = 0
    #: mismatches remaining after the round's fix was committed
    residual_mismatches: int = 0
    #: localization drained its candidate set (interacting-fault masking)
    drained: bool = False

    def to_dict(self) -> dict:
        return {
            "round": self.round,
            "n_mismatches": self.n_mismatches,
            "group_outputs": list(self.group_outputs),
            "deferred_outputs": list(self.deferred_outputs),
            "n_probes": self.n_probes,
            "candidates": list(self.candidates),
            "corrected": list(self.corrected),
            "sat_eliminated": self.sat_eliminated,
            "probes_retired": self.probes_retired,
            "residual_mismatches": self.residual_mismatches,
            "drained": self.drained,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RoundRecord":
        return cls(**data)


@dataclass
class RunContext:
    """Shared state the stages read and grow.

    Construction fields mirror the historical session/run signatures;
    result fields are filled in stage order.
    """

    packed: PackedDesign
    device: Device
    golden: Netlist
    strategy: BaseStrategy
    engine: str = "compiled"
    seed: int = 1
    n_patterns: int = 64
    n_cycles: int = 8
    error_kind: str = "table_bit"
    error_seed: int = 0
    #: number of simultaneous design errors to inject
    n_errors: int = 1
    #: per-error kinds (``None`` = ``error_kind`` repeated)
    error_kinds: list | None = None
    #: diagnose→fix→re-detect round budget (``None`` = ``n_errors``)
    max_rounds: int | None = None
    max_probes: int = 8
    goal_size: int = 4
    #: fix verification mode: "simulate" | "prove" | "both"
    verify: str = "simulate"
    #: proof unrolling depth; ``None`` falls back to ``n_cycles``
    prove_frames: int | None = None
    #: fix synthesis mode: "oracle" | "cegis"
    correction: str = "oracle"
    #: per-stage wall-clock budgets (stage name → seconds)
    stage_timeouts: dict | None = None
    spec: object | None = None
    #: 1-based attempt number under the resilient executor
    attempt: int = 1
    #: stage currently executing ("setup" before the stage walk) — the
    #: failure taxonomy reads this when an exception surfaces
    current_stage: str = "setup"

    # -- produced by the stages ---------------------------------------
    #: every injected error, in injection order
    errors: list = field(default_factory=list)
    #: the first injected error (legacy single-fault view)
    error: ErrorRecord | None = None
    initial_effort: EffortMeter = field(default_factory=EffortMeter)
    stimulus: list | None = None
    mismatches: list[Mismatch] = field(default_factory=list)
    detected: bool = False
    #: mismatches driving the *current* diagnosis round
    round_mismatches: list = field(default_factory=list)
    #: per-round localizations; ``localization`` is the latest
    localizations: list = field(default_factory=list)
    localization: LocalizationResult | None = None
    #: completed :class:`RoundRecord` entries
    rounds: list = field(default_factory=list)
    #: injected instances whose round candidates contained them
    errors_found: set = field(default_factory=set)
    #: injected instances already corrected (oracle or CEGIS)
    corrected: list = field(default_factory=list)
    #: observation points still in the fabric (retired next round)
    live_probes: list = field(default_factory=list)
    #: golden net history shared by every round's localizer
    golden_history: list | None = None
    #: instances corrected by the round in flight (reset per round)
    round_corrected: list = field(default_factory=list)
    #: stale probes retired at the start of the round in flight
    probes_retired_this_round: int = 0
    #: netlist revision an in-loop successful proof was computed at
    #: (lets VerifyStage skip recomputing it)
    proof_revision: int | None = None
    localized_correctly: bool = False
    fix: ChangeSet | None = None
    #: how the committed fix was produced (FixSynthesis.to_dict form
    #: for CEGIS repairs; None for oracle back-annotation)
    correction_info: dict | None = None
    #: per-round CEGIS repair descriptions
    corrections: list = field(default_factory=list)
    remaining: list[Mismatch] = field(default_factory=list)
    fixed: bool = False
    #: bounded-equivalence verdict (None when the proof never ran)
    proved: bool | None = None
    #: ProofResult.to_dict() of the verify-stage proof
    proof: dict | None = None
    #: per-cycle input words exciting the residual bug, if one was found
    counterexample: list | None = None
    #: the compiled kernel reproduced the counterexample's mismatch
    counterexample_confirmed: bool | None = None
    notes: list[str] = field(default_factory=list)
    #: per-stage wall-clock seconds, keyed by stage name (localize and
    #: correct accumulate across rounds)
    stage_seconds: dict = field(default_factory=dict)

    @classmethod
    def from_spec(cls, spec, tile_cache=_UNSET, bundle=None, device=None,
                  golden=None) -> "RunContext":
        """Materialize a context: build the design, device, strategy.

        ``bundle``/``device``/``golden`` let a warm-state registry
        (:mod:`repro.service.warm`) inject pre-built artifacts instead
        of rebuilding them per run; they must be exactly what this
        method would construct from ``spec`` (warm state is a cache,
        never a semantic input — the service's bit-identity tests hold
        the registry to that).
        """
        from repro.api.design import device_for, load_bundle

        if tile_cache is _UNSET:
            tile_cache = resolve_tile_cache(spec)
        if bundle is None:
            bundle = load_bundle(spec)
        packed = bundle.packed
        if device is None:
            device = device_for(
                packed, device=spec.device,
                channel_width=spec.channel_width,
                area_overhead=spec.device_overhead,
            )
        if golden is None:
            golden = packed.netlist.copy(f"{packed.netlist.name}.golden")
        strategy = make_strategy(
            spec.strategy, packed, device, seed=spec.seed,
            preset=spec.effort_preset(), tiling=spec.tiling_options(),
            tile_cache=tile_cache,
        )
        return cls(
            packed=packed, device=device, golden=golden, strategy=strategy,
            engine=spec.engine, seed=spec.seed,
            n_patterns=spec.n_patterns, n_cycles=spec.n_cycles,
            error_kind=spec.error_kind, error_seed=spec.error_seed,
            n_errors=spec.n_errors, error_kinds=spec.error_kinds,
            max_rounds=spec.max_rounds,
            max_probes=spec.max_probes, goal_size=spec.goal_size,
            verify=spec.verify, prove_frames=spec.prove_frames,
            correction=spec.correction,
            stage_timeouts=spec.stage_timeouts,
            spec=spec,
        )

    def resolved_error_kinds(self) -> list[str]:
        """The per-error kind list the injector consumes."""
        from repro.api.spec import resolve_error_kinds

        return resolve_error_kinds(
            self.error_kind, self.error_kinds, self.n_errors
        )

    def effective_max_rounds(self) -> int:
        """The round budget: explicit, or one round per injected error."""
        from repro.api.spec import resolve_max_rounds

        return resolve_max_rounds(self.max_rounds, self.n_errors)

    def remaining_errors(self) -> list[ErrorRecord]:
        """Injected errors not yet corrected, in injection order."""
        done = set(self.corrected)
        return [e for e in self.errors if e.instance not in done]

    def detect(self) -> list[Mismatch]:
        """Golden-vs-layout comparison on the current stimulus."""
        return detect_on_layout(
            self.strategy.layout, self.golden, self.stimulus,
            self.n_patterns, engine=self.engine,
        )


def resolve_tile_cache(spec) -> TileConfigCache | None:
    """Map a spec's cache policy onto a cache object (or None)."""
    if spec.cache == "off":
        return None
    if spec.cache == "private":
        return TileConfigCache()
    return DEFAULT_TILE_CACHE


class Stage:
    """One pipeline stage: a name and a ``run(ctx, hooks)``.

    ``composite`` stages orchestrate inner stages themselves (timing
    and hook events included); the pipeline runs them untimed.
    """

    name = "stage"
    composite = False

    def run(self, ctx: RunContext, hooks: PipelineHooks) -> None:
        raise NotImplementedError


def run_timed_stage(stage: Stage, ctx: RunContext,
                    hooks: PipelineHooks) -> None:
    """Run one stage with hook events and accumulated wall-clock.

    Shared by the pipeline's top-level walk and the diagnose loop's
    per-round inner walk, so stage accounting has one definition.

    Stage boundaries are also the resilience substrate's yield points:
    the cooperative run deadline is checked, armed chaos faults fire,
    and a per-stage budget (``RunSpec.stage_timeouts``) is scoped over
    the stage body.  Timing and the ``on_stage_end`` event land in a
    ``finally`` so a stage that dies mid-flight still accounts for the
    wall-clock it consumed — partial results stay truthful.
    """
    hooks.on_stage_start(stage, ctx)
    ctx.current_stage = stage.name
    check_deadline(stage.name)
    stage_budget = (ctx.stage_timeouts or {}).get(stage.name)
    stage_deadline = (
        Deadline(stage_budget, label=f"stage:{stage.name}")
        if stage_budget else None
    )
    t0 = time.perf_counter()
    try:
        with deadline_scope(stage_deadline):
            # chaos faults model the stage itself misbehaving, so they
            # fire inside its budget — an injected hang must trip the
            # per-stage deadline, not stall before it is armed
            chaos_stage_event(stage.name)
            stage.run(ctx, hooks)
    finally:
        seconds = time.perf_counter() - t0
        ctx.stage_seconds[stage.name] = (
            ctx.stage_seconds.get(stage.name, 0.0) + seconds
        )
        hooks.on_stage_end(stage, ctx, seconds)


class DetectStage(Stage):
    """Inject, implement, emulate: does the design misbehave at all?"""

    name = "detect"

    def run(self, ctx: RunContext, hooks: PipelineHooks) -> None:
        netlist = ctx.packed.netlist
        ctx.errors = inject_errors(
            netlist, ctx.resolved_error_kinds(), seed=ctx.error_seed,
            n_errors=ctx.n_errors,
        )
        ctx.error = ctx.errors[0]
        check_netlist(netlist)
        refresh_block_nets(ctx.packed)

        ctx.strategy.build_initial(meter=ctx.initial_effort)

        ctx.stimulus = random_stimulus(
            ctx.golden, ctx.n_cycles, ctx.n_patterns, seed=ctx.seed
        )
        mismatches = ctx.detect()
        if not mismatches:
            # widen the net: longer run, more patterns
            ctx.notes.append("first stimulus missed the error; widened")
            ctx.stimulus = random_stimulus(
                ctx.golden, ctx.n_cycles * 4, ctx.n_patterns,
                seed=ctx.seed + 1,
            )
            mismatches = ctx.detect()
        ctx.mismatches = mismatches
        ctx.round_mismatches = list(mismatches)
        ctx.detected = bool(mismatches)
        if not ctx.detected:
            ctx.notes.append("error never excited; not a functional bug")


class LocalizeStage(Stage):
    """Cone bisection over observation-point commits (steps 16-19).

    Runs once per diagnosis round: stale observation points from the
    previous round are retired first (one removal commit, replayed from
    the tile-configuration cache on repeats), then the round's mismatch
    group is localized.
    """

    name = "localize"

    def run(self, ctx: RunContext, hooks: PipelineHooks) -> None:
        if not ctx.detected:
            return
        # steps 4-8: the tiled strategy locks its boundaries now
        ctx.strategy.prepare_for_debug()
        self._retire_stale_probes(ctx)
        remaining = max(1, ctx.n_errors - len(ctx.corrected))
        localizer = ConeLocalizer(
            ctx.strategy, ctx.golden, ctx.stimulus, ctx.n_patterns,
            goal_size=ctx.goal_size, engine=ctx.engine,
            n_errors=remaining, golden_history=ctx.golden_history,
            tolerate_drain=ctx.n_errors > 1,
            want_pairs=ctx.correction == "cegis",
        )
        ctx.golden_history = localizer.golden_history
        result = localizer.run(
            ctx.round_mismatches, max_probes=ctx.max_probes,
            on_probe=lambda step: hooks.on_probe(ctx, step),
        )
        result.round = len(ctx.rounds) + 1
        ctx.localization = result
        ctx.localizations.append(result)
        ctx.live_probes = list(result.probe_points)
        for err in ctx.errors:
            if err.instance in result.candidates:
                ctx.errors_found.add(err.instance)
        ctx.localized_correctly = all(
            e.instance in ctx.errors_found for e in ctx.errors
        )

    @staticmethod
    def _retire_stale_probes(ctx: RunContext) -> None:
        """Remove the previous round's observation points (one commit)."""
        if not ctx.live_probes:
            return
        netlist = ctx.packed.netlist
        changes = remove_observation_points(netlist, ctx.live_probes)
        retired = len(ctx.live_probes)
        ctx.live_probes = []
        if changes.is_empty:
            return
        ctx.strategy.commit(changes)
        ctx.notes.append(f"retired {retired} stale observation point(s)")
        ctx.probes_retired_this_round = retired


class CorrectStage(Stage):
    """Produce and commit one round's fix (steps 11-15).

    ``correction="oracle"`` replays the designer's back-annotated
    inverse of the *best candidate* among the still-uncorrected
    injected errors — the one the round's localization pinned down
    (falling back, with a note, to the next uncorrected error when the
    candidates missed every remaining fault, so the loop always makes
    progress).  ``correction="cegis"`` instead synthesizes replacement
    truth tables from counterexamples (:mod:`repro.sat.cegis`) — single
    candidates first, then SAT-ranked candidate pairs jointly — scoped
    to the round's output group, with per-round fallback to
    back-annotation when no candidate set admits a table repair.
    """

    name = "correct"

    def run(self, ctx: RunContext, hooks: PipelineHooks) -> None:
        if not ctx.detected:
            return
        assert ctx.errors
        netlist = ctx.packed.netlist
        ctx.round_corrected = []
        fix: ChangeSet | None = None
        anchor: str | None = None
        if ctx.correction == "cegis":
            synthesized = self._synthesize(ctx)
            if synthesized is not None:
                fix = synthesized.changes
                anchor = synthesized.instance
                info = synthesized.to_dict()
                ctx.corrections.append(info)
                if ctx.correction_info is None:
                    ctx.correction_info = info
                for name in synthesized.instances:
                    ctx.round_corrected.append(name)
                    if any(e.instance == name for e in ctx.errors):
                        if name not in ctx.corrected:
                            ctx.corrected.append(name)
            else:
                ctx.notes.append(
                    "cegis found no truth-table repair; "
                    "fell back to back-annotation"
                )
        if fix is None:
            target = self._oracle_target(ctx)
            if target is None:
                # no uncorrected error left (everything compensated by
                # CEGIS retables), or restoring any of them would only
                # regress repairs synthesized against the faulty wiring;
                # replaying a correction would *toggle* kinds like
                # input_swap rather than restore them, so commit
                # nothing and let the round budget end the loop
                ctx.notes.append(
                    "no back-annotation would improve this round; "
                    "skipping the fix"
                )
                return
            fix = apply_correction(netlist, target)
            anchor = target.instance
            if target.instance not in ctx.corrected:
                ctx.corrected.append(target.instance)
            ctx.round_corrected.append(target.instance)
        check_netlist(netlist)
        ctx.fix = fix
        ctx.strategy.commit(fix, anchor_instance=anchor)

    @classmethod
    def _oracle_target(cls, ctx: RunContext) -> ErrorRecord | None:
        """The uncorrected error the round's candidates point at, or
        ``None`` when no back-annotation is available (or, after a
        CEGIS repair landed elsewhere, when none would help)."""
        remaining = ctx.remaining_errors()
        if not remaining:
            return None
        candidates = (
            ctx.localization.candidates
            if ctx.localization is not None else set()
        )
        located = sorted(
            e.instance for e in remaining if e.instance in candidates
        )
        by_instance = {e.instance: e for e in remaining}
        ordered = [by_instance[name] for name in located] + [
            e for e in remaining if e.instance not in set(located)
        ]
        if ctx.corrections:
            # a CEGIS retable at a non-error site may have *compensated*
            # an injected error; restoring that error now would break the
            # synthesized repair.  Keep only fallbacks that demonstrably
            # reduce the mismatch count on a scratch copy.
            ordered = [
                e for e in ordered
                if cls._mismatches_after_restoring(ctx, e)
                < len(ctx.round_mismatches)
            ]
            if not ordered:
                return None
        target = ordered[0]
        if ctx.n_errors > 1 and target.instance not in candidates:
            ctx.notes.append(
                "round candidates missed every remaining error; "
                f"back-annotating {target.instance}"
            )
        return target

    @staticmethod
    def _mismatches_after_restoring(ctx: RunContext, error) -> int:
        """Mismatch count if ``error`` were back-annotated (scratch)."""
        from repro.debug.detect import compare_runs
        from repro.netlist.simulate import replay_outputs

        scratch = ctx.packed.netlist.copy(
            f"{ctx.packed.netlist.name}.fallback"
        )
        apply_correction(scratch, error)
        return len(compare_runs(
            replay_outputs(scratch, ctx.stimulus, ctx.n_patterns,
                           engine=ctx.engine),
            replay_outputs(ctx.golden, ctx.stimulus, ctx.n_patterns,
                           engine=ctx.engine),
        ))

    @staticmethod
    def _synthesize(ctx: RunContext):
        from repro.debug.correct import synthesize_lut_fix

        loc = ctx.localization
        candidates = sorted(loc.candidates) if loc is not None else []
        if not candidates or not ctx.round_mismatches:
            return None
        max_luts = 1
        pair_hints = None
        ignore_outputs = None
        if ctx.n_errors > 1:
            remaining = max(1, ctx.n_errors - len(ctx.corrected))
            max_luts = min(2, remaining)
            pair_hints = [tuple(p) for p in (loc.sat_pairs or [])]
            # outputs deferred to later rounds belong to other faults —
            # a repair must not be rejected for leaving them broken
            ignore_outputs = set(loc.deferred_outputs)
        return synthesize_lut_fix(
            ctx.packed.netlist, ctx.golden, candidates,
            ctx.round_mismatches, ctx.stimulus, ctx.n_patterns,
            engine=ctx.engine, seed=ctx.seed,
            max_luts=max_luts, pair_hints=pair_hints,
            ignore_outputs=ignore_outputs,
        )


class DiagnoseLoop(Stage):
    """The outer diagnose→fix→re-detect loop (multi-error round driver).

    Runs :class:`LocalizeStage` then :class:`CorrectStage`, re-detects,
    and iterates until the stimulus comes back clean or the round
    budget (``max_rounds``, default one round per injected error) is
    exhausted.  Inner stages are individually timed and announced
    through the hooks exactly like top-level stages, so a single-fault
    run observes the historical ``detect, localize, correct, verify``
    sequence unchanged.

    With ``verify="prove"|"both"`` a clean stimulus does not end the
    loop early: while rounds remain, the bounded-equivalence proof runs
    in-loop, and a *confirmed* counterexample is folded into the
    stimulus as one more pattern word — re-arming detection against
    faults the random patterns never excited.  A proof that succeeds
    in-loop is cached (keyed on the netlist revision) so the verify
    stage does not recompute it.
    """

    name = "diagnose"
    composite = True

    def __init__(self, localize: Stage | None = None,
                 correct: Stage | None = None) -> None:
        self.localize = localize if localize is not None else LocalizeStage()
        self.correct = correct if correct is not None else CorrectStage()

    def run(self, ctx: RunContext, hooks: PipelineHooks) -> None:
        budget = ctx.effective_max_rounds()
        while True:
            check_deadline("diagnose.round")
            round_no = len(ctx.rounds) + 1
            ctx.probes_retired_this_round = 0
            with maybe_span("round", category="diagnose", round=round_no):
                for stage in (self.localize, self.correct):
                    run_timed_stage(stage, ctx, hooks)
                if not ctx.detected:
                    return
                residual = ctx.detect()
                ctx.remaining = residual
                loc = ctx.localization
                ctx.rounds.append(RoundRecord(
                    round=round_no,
                    n_mismatches=len(ctx.round_mismatches),
                    group_outputs=list(loc.group_outputs) if loc else [],
                    deferred_outputs=list(loc.deferred_outputs)
                    if loc else [],
                    n_probes=loc.n_probes if loc else 0,
                    candidates=sorted(loc.candidates) if loc else [],
                    corrected=list(ctx.round_corrected),
                    sat_eliminated=loc.sat_eliminated if loc else 0,
                    probes_retired=ctx.probes_retired_this_round,
                    residual_mismatches=len(residual),
                    drained=bool(loc.drained) if loc else False,
                ))
                if not residual:
                    if (
                        ctx.verify in ("prove", "both")
                        and len(ctx.rounds) < budget
                    ):
                        residual = self._proof_redetect(ctx)
                    if not residual:
                        return
                if len(ctx.rounds) >= budget:
                    if budget > 1:
                        ctx.notes.append(
                            f"{len(residual)} mismatches persist after "
                            f"{len(ctx.rounds)} diagnosis rounds "
                            "(round budget exhausted)"
                        )
                    return
                ctx.round_mismatches = residual

    @staticmethod
    def _proof_redetect(ctx: RunContext):
        """Turn a failed in-loop proof into next-round mismatches.

        Returns the new round's mismatches after folding a confirmed
        counterexample into the stimulus as one extra pattern word, or
        a false value when the design proved equivalent (the proof is
        cached for the verify stage) or the counterexample could not be
        reproduced by the simulation kernel.
        """
        from repro.sat.equiv import (
            counterexample_mismatches,
            prove_equivalence,
        )

        frames = ctx.prove_frames or ctx.n_cycles
        proof = prove_equivalence(
            ctx.packed.netlist, ctx.golden, frames=frames, seed=ctx.seed,
        )
        if proof.proved:
            ctx.proved = True
            ctx.proof = proof.to_dict()
            ctx.proof_revision = getattr(
                ctx.packed.netlist, "revision", None
            )
            return None
        cex = proof.counterexample
        confirmed = counterexample_mismatches(
            ctx.packed.netlist, ctx.golden, cex, engine=ctx.engine,
        )
        if not confirmed:
            ctx.notes.append(
                "in-loop proof counterexample not reproduced by the "
                "simulation kernel; leaving the verdict to the verify stage"
            )
            return None
        # one more pattern word carrying the counterexample, alongside
        # the random patterns every later verdict still leans on
        pattern_bit = 1 << ctx.n_patterns
        merged = []
        for t in range(max(len(ctx.stimulus), len(cex))):
            cycle = dict(ctx.stimulus[t]) if t < len(ctx.stimulus) else {}
            if t < len(cex):
                for port, bit in cex[t].items():
                    if bit:
                        cycle[port] = cycle.get(port, 0) | pattern_bit
            merged.append(cycle)
        ctx.stimulus = merged
        ctx.n_patterns += 1
        ctx.golden_history = None  # widths changed; recompute next round
        residual = ctx.detect()
        if residual:
            ctx.notes.append(
                "proof counterexample re-armed detection for round "
                f"{len(ctx.rounds) + 1}"
            )
        return residual


class VerifyStage(Stage):
    """Judge the fix (step 21): stimulus replay, SAT proof, or both.

    ``verify="simulate"`` judges the diagnose loop's final re-detection
    (re-running it when no loop ran — custom stage lists).
    ``verify="prove"`` builds a corrected-vs-golden miter per output
    cone (:func:`repro.sat.equiv.prove_equivalence`) and either proves
    bounded equivalence from reset or extracts a counterexample, which
    is replayed through the compiled kernel as a regression stimulus
    and recorded in ``remaining``.  ``"both"`` requires the stimulus
    *and* the proof to pass.
    """

    name = "verify"

    def run(self, ctx: RunContext, hooks: PipelineHooks) -> None:
        if not ctx.detected:
            return
        sim_ok = True
        if ctx.verify in ("simulate", "both"):
            if not ctx.rounds:
                ctx.remaining = ctx.detect()
            sim_ok = not ctx.remaining
            if not sim_ok:
                ctx.notes.append(
                    f"{len(ctx.remaining)} mismatches persist after fix"
                )
        if ctx.verify in ("prove", "both"):
            self._prove(ctx)
            ctx.fixed = sim_ok and bool(ctx.proved)
        else:
            ctx.fixed = sim_ok

    @staticmethod
    def _prove(ctx: RunContext) -> None:
        from repro.sat.equiv import (
            counterexample_mismatches,
            prove_equivalence,
        )

        revision = getattr(ctx.packed.netlist, "revision", None)
        if (
            ctx.proved
            and ctx.proof is not None
            and ctx.proof_revision == revision
        ):
            return  # the diagnose loop already proved this netlist
        frames = ctx.prove_frames or ctx.n_cycles
        proof = prove_equivalence(
            ctx.packed.netlist, ctx.golden, frames=frames, seed=ctx.seed,
        )
        ctx.proved = proof.proved
        ctx.proof = proof.to_dict()
        if proof.proved:
            return
        ctx.counterexample = proof.counterexample
        mismatches = counterexample_mismatches(
            ctx.packed.netlist, ctx.golden, proof.counterexample,
            engine=ctx.engine,
        )
        ctx.counterexample_confirmed = bool(mismatches)
        if ctx.verify == "prove":
            # the replayed counterexample is the regression stimulus
            ctx.remaining = mismatches
        ctx.notes.append(
            f"proof found a counterexample at output {proof.cex_output} "
            f"({'confirmed' if mismatches else 'NOT reproduced'} "
            "by the compiled kernel)"
        )


def default_stages() -> tuple[Stage, ...]:
    return (DetectStage(), DiagnoseLoop(), VerifyStage())


class DebugPipeline:
    """Runs stages over a context, timing each and firing hooks.

    Composite stages (the diagnose loop) time and announce their inner
    stages themselves, so per-stage accounting stays keyed by
    ``detect`` / ``localize`` / ``correct`` / ``verify``.
    """

    def __init__(self, stages: tuple[Stage, ...] | None = None,
                 hooks: PipelineHooks | None = None) -> None:
        self.stages = tuple(stages) if stages is not None else default_stages()
        self.hooks = hooks or PipelineHooks()

    def execute(self, ctx: RunContext) -> RunContext:
        hooks = self.hooks
        previous_listener = ctx.strategy.commit_listener
        ctx.strategy.commit_listener = (
            lambda record: hooks.on_commit(ctx, record)
        )
        try:
            for stage in self.stages:
                if stage.composite:
                    # composite stages time and announce their inner
                    # stages themselves, but deadline/chaos boundary
                    # checks still apply to the composite as a whole
                    ctx.current_stage = stage.name
                    check_deadline(stage.name)
                    budget = (ctx.stage_timeouts or {}).get(stage.name)
                    scope = (
                        Deadline(budget, label=f"stage:{stage.name}")
                        if budget else None
                    )
                    with deadline_scope(scope), \
                            maybe_span(stage.name, category="stage"):
                        chaos_stage_event(stage.name)
                        stage.run(ctx, hooks)
                    continue
                run_timed_stage(stage, ctx, hooks)
        finally:
            ctx.strategy.commit_listener = previous_listener
        return ctx


def run_spec(spec, hooks: PipelineHooks | None = None,
             tile_cache=_UNSET, return_context: bool = False,
             chaos=None, warm=None, tracer=None, profile: bool = False):
    """The facade: one spec in, one JSON-ready result out — always.

    Builds the design, runs the staged pipeline (with the diagnose
    round loop between detection and verification), and packages a
    :class:`~repro.api.result.RunResult`.  With ``return_context`` the
    materialized :class:`RunContext` is returned alongside for callers
    that need live objects (layout legality checks, benchmarks).

    The executor is *resilient*: pipeline exceptions become structured
    ``status="failed"`` results (``RunResult.failures`` carries the
    per-attempt :class:`~repro.resilience.failure.RunFailure` records),
    a tripped ``timeout_s``/``stage_timeouts`` budget becomes
    ``status="timeout"`` with whatever partial results the completed
    stages produced, and ``retries > 0`` re-attempts a failed run —
    stepping down the degradation ladder
    (:func:`repro.resilience.degrade.next_degraded`) when a rung
    applies, each step recorded in ``RunResult.degradations``.  A spec
    with no budgets, no retries, and no chaos takes a single attempt
    down the exact historical code path, bit-identical to the pre-
    resilience pipeline.

    ``chaos`` overrides ``spec.chaos`` (the campaign runner passes its
    own config through here); fault selection is deterministic per
    spec, so re-running a chaos campaign reproduces the same failures.

    ``warm`` is an optional warm-state registry
    (:class:`repro.service.warm.WarmRegistry`): each attempt asks it
    for pre-built design artifacts (bundle fork, device, shared golden)
    keyed by the spec's design digest.  Warm state is a pure cache —
    the result is bit-identical with or without it.

    ``tracer`` (a :class:`repro.obs.Tracer`) arms structured tracing
    for the run: a root ``run`` span per attempt, stage/round/probe
    spans beneath it, closed with status ``timeout``/``error`` when an
    attempt dies mid-flight.  ``profile`` scopes a per-stage cProfile
    over the pipeline and lands the top-N aggregation in
    ``RunResult.profile``.  Both are strictly additive — observation
    never changes the computed result.
    """
    from repro.api.result import RunResult
    from repro.resilience.budget import backoff_seconds, clamp_backoff
    from repro.resilience.chaos import (
        CACHE_FILE_KINDS,
        PIPELINE_KINDS,
        WORKER_KINDS,
        ChaosConfig,
        ChaosInjector,
        ReplayRejectingCache,
        chaos_scope,
        corrupt_cache_file,
    )
    from repro.resilience.degrade import next_degraded
    from repro.resilience.failure import RunFailure
    from repro.tiling.cache import (
        cache_file_path,
        load_tile_cache,
        save_tile_cache,
        stats_delta,
    )

    chaos_cfg = ChaosConfig.coerce(chaos if chaos is not None else spec.chaos)
    fired = chaos_cfg.select(spec) if chaos_cfg is not None else []
    degradations: list = []

    # cache-dir persistence and the per-run stats delta only make sense
    # when this run owns its cache; a caller-supplied cache (e.g. the
    # campaign runner's, shared across concurrent workers) is loaded,
    # saved, and accounted at the caller's level instead
    owns_cache = tile_cache is _UNSET
    if owns_cache:
        tile_cache = resolve_tile_cache(spec)
        if spec.cache_dir is not None and tile_cache is not None:
            for fault in fired:
                # damage the persisted file *before* warming: the load
                # must cold-start cleanly, never crash the run
                if fault.kind in CACHE_FILE_KINDS and corrupt_cache_file(
                    cache_file_path(spec.cache_dir), fault.kind,
                    seed=chaos_cfg.seed,
                ):
                    degradations.append({
                        "field": "cache_file", "from": "warm",
                        "to": "cold", "stage": "setup",
                        "chaos": fault.kind,
                    })
            load_tile_cache(spec.cache_dir, tile_cache)

    cache_before = (
        tile_cache.stats()
        if owns_cache and tile_cache is not None else None
    )

    # worker kinds ride along: ChaosInjector only fires them inside a
    # supervised worker process (inert under the thread executor)
    pipeline_faults = [
        f for f in fired if f.kind in PIPELINE_KINDS + WORKER_KINDS
    ]
    injector = ChaosInjector(pipeline_faults) if pipeline_faults else None
    reject_replay = any(f.kind == "replay_reject" for f in fired)

    profiler = StageProfiler() if profile else None
    run_hooks = hooks
    if profiler is not None:
        run_hooks = ProfilingHooks(profiler, inner=run_hooks)
    if tracer is not None:
        run_hooks = TracingHooks(tracer, inner=run_hooks)

    attempts_allowed = spec.retries + 1
    failures: list[RunFailure] = []
    current = spec
    run_cache = tile_cache
    rejecting: ReplayRejectingCache | None = None
    ctx: RunContext | None = None
    status = "failed"
    attempt = 1
    t_run = time.perf_counter()
    for attempt in range(1, attempts_allowed + 1):
        attempt_cache = run_cache
        if reject_replay and attempt_cache is not None:
            rejecting = ReplayRejectingCache(attempt_cache)
            attempt_cache = rejecting
        ctx = None
        t0 = time.perf_counter()
        try:
            warm_parts = (
                warm.context_parts(current) if warm is not None else {}
            )
            ctx = RunContext.from_spec(current, tile_cache=attempt_cache,
                                       **warm_parts)
            ctx.attempt = attempt
            run_deadline = (
                Deadline(current.timeout_s, label="run")
                if current.timeout_s else None
            )
            with tracer_scope(tracer):
                run_span = None
                if tracer is not None:
                    run_span = tracer.begin(
                        "run", category="run",
                        design=current.design_label,
                        digest=current.digest(),
                        strategy=current.strategy,
                        error_seed=current.error_seed,
                        n_errors=current.n_errors,
                        attempt=attempt,
                    )
                with deadline_scope(run_deadline), chaos_scope(injector):
                    DebugPipeline(hooks=run_hooks).execute(ctx)
                if tracer is not None:
                    tracer.end(
                        run_span, status="ok", fixed=ctx.fixed,
                        rounds=len(ctx.rounds),
                    )
            status = "ok"
            break
        except DeadlineExceeded as exc:
            if tracer is not None:
                tracer.unwind("timeout")
            failures.append(RunFailure.from_exception(
                exc, stage=ctx.current_stage if ctx is not None else "setup",
                elapsed_s=time.perf_counter() - t0, attempt=attempt,
            ))
            # a budget is a budget: a timed-out run is not retried (the
            # retry would burn the same wall-clock again); the partial
            # results the completed stages produced are kept
            status = "timeout"
            break
        except Exception as exc:
            if tracer is not None:
                tracer.unwind("error")
            stage = ctx.current_stage if ctx is not None else "setup"
            failures.append(RunFailure.from_exception(
                exc, stage=stage,
                elapsed_s=time.perf_counter() - t0, attempt=attempt,
            ))
            if attempt >= attempts_allowed:
                status = "failed"
                break
            step = next_degraded(current, stage)
            if step is not None:
                current, note = step
                degradations.append(dict(note, attempt=attempt))
                if note["field"] == "cache":
                    run_cache = None
            delay = clamp_backoff(
                backoff_seconds(
                    attempt, seed=current.seed,
                    base=current.retry_backoff_s,
                ),
                budget_s=current.timeout_s,
            )
            if delay:
                time.sleep(delay)
    wall = time.perf_counter() - t_run

    if rejecting is not None and rejecting.denied:
        degradations.append({
            "field": "cache_replay", "from": "replay", "to": "fresh-pnr",
            "stage": "commit", "denied": rejecting.denied, "chaos": True,
        })
    if status == "ok" and degradations:
        status = "degraded"

    cache_delta = None
    if cache_before is not None:
        cache_delta = stats_delta(cache_before, tile_cache.stats())
        if spec.cache_dir is not None:
            save_tile_cache(tile_cache, spec.cache_dir)

    METRICS.inc("repro_runs_total", status=status)
    if ctx is not None:
        for stage_name, seconds in ctx.stage_seconds.items():
            METRICS.observe("repro_stage_seconds", seconds,
                            stage=stage_name)
        if ctx.rounds:
            METRICS.inc("repro_rounds_total", value=len(ctx.rounds))

    profile_data = profiler.result() if profiler is not None else None
    if tracer is not None and profile_data is not None:
        tracer.extras["profile"] = profile_data

    failure_dicts = [f.to_dict() for f in failures]
    if ctx is not None:
        result = RunResult.from_context(
            ctx, wall_seconds=wall, cache=cache_delta, status=status,
            failures=failure_dicts, degradations=degradations,
            attempts=attempt, profile=profile_data,
        )
    else:
        # the run never materialized a context (design build / strategy
        # construction failed): a minimal, spec-complete record
        result = RunResult(
            spec=spec.to_dict(), status=status, failures=failure_dicts,
            degradations=degradations, attempts=attempt,
            design=spec.design_label, strategy=spec.strategy,
            engine=spec.engine, error_kind=spec.error_kind,
            wall_seconds=round(wall, 6), cache=cache_delta,
            profile=profile_data,
        )
    if return_context:
        return result, ctx
    return result

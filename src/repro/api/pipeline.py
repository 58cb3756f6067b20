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

:func:`run_spec`, the `python -m repro` CLI, the campaign runner and
the debug service all execute these same stage objects: there is only
one implementation of the loop.  The :class:`RunContext` carries the
run's :class:`~repro.api.spec.RunSpec` as its only input, and every
stage — the loop's inner ones included — crosses one boundary,
:func:`run_timed_stage`, which checks the deadline, scopes the stage
budget, fires chaos and opens the stage's span and profile scope.

Observers subclass :class:`PipelineHooks` and receive
``on_stage_start`` / ``on_stage_end`` / ``on_probe`` / ``on_commit``
events (localize/correct fire once per round), so progress reporting,
benchmarks, and tests no longer reach into strategy or localizer
internals.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field

from repro.api.spec import RunSpec
from repro.arch.device import Device
from repro.debug.correct import apply_correction
from repro.debug.detect import GoldenTrace, Mismatch, detect_on_layout
from repro.debug.errors import ErrorRecord, inject_errors
from repro.debug.instrument import remove_observation_points
from repro.debug.localize import ConeLocalizer, LocalizationResult
from repro.debug.strategies import BaseStrategy, make_strategy
from repro.debug.testgen import random_stimulus
from repro.netlist.core import Netlist
from repro.netlist.simulate import Trace
from repro.netlist.validate import check_netlist
from repro.errors import DeadlineExceeded, LocalizationDrained
from repro.obs.collector import run_scope
from repro.obs.metrics import METRICS
from repro.obs.profile import StageProfiler, maybe_profile, profiler_scope
from repro.obs.trace import (
    maybe_instant,
    maybe_set_attrs,
    maybe_span,
    tracer_scope,
)
from repro.pnr.effort import EffortMeter
from repro.resilience.budget import Deadline, check_deadline, deadline_scope
from repro.resilience.chaos import chaos_stage_event
from repro.synth.pack import PackedDesign
from repro.tiling.cache import DEFAULT_TILE_CACHE, TileConfigCache
from repro.tiling.eco import ChangeSet
from repro.tiling.manager import absorb_changes

#: ``run_spec``'s default cache: the run resolves its own from the
#: spec's policy and owns its ``cache_dir`` persistence
_OWN_CACHE = object()


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

    ``spec`` is the run's only input: stages read every setting from
    it.  ``packed``/``device``/``golden``/``strategy`` are the objects
    :meth:`from_spec` builds from it; the remaining fields are filled
    in stage order.
    """

    packed: PackedDesign
    device: Device
    golden: Netlist
    strategy: BaseStrategy
    spec: RunSpec
    #: 1-based attempt number under the resilient executor
    attempt: int = 1
    #: stage currently executing ("setup" before the stage walk) — the
    #: failure taxonomy reads this when an exception surfaces
    current_stage: str = "setup"

    # -- produced by the stages ---------------------------------------
    #: every injected error, in injection order
    errors: list = field(default_factory=list)
    initial_effort: EffortMeter = field(default_factory=EffortMeter)
    #: the golden model's response to the current stimulus; every
    #: stimulus change (widened retry, proof re-arm) installs a new one
    trace: GoldenTrace | None = None
    #: the DUT's trace on ``trace``'s stimulus, kept by every detection
    #: (:func:`~repro.debug.detect.detect_on_layout`); probe verdicts
    #: read it, and the diagnose loop drops it when it exits
    dut_trace: Trace | None = None
    #: random-stimulus golden traces by ``(n_cycles, n_patterns, seed,
    #: engine)``: the run's own dict, or its design memo entry's
    #: (:class:`~repro.api.design.GoldenTraces`), shared across runs
    golden_traces: dict = field(default_factory=dict)
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
    #: instances corrected by the round in flight (reset per round)
    round_corrected: list = field(default_factory=list)
    #: stale probes retired at the start of the round in flight
    probes_retired_this_round: int = 0
    #: netlist revision an in-loop successful proof was computed at
    #: (lets VerifyStage skip recomputing it)
    proof_revision: int | None = None
    localized_correctly: bool = False
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
    def from_spec(cls, spec, tile_cache, memo=None) -> "RunContext":
        """Materialize a context: build the design, device, strategy.

        ``tile_cache`` is the caller's: the strategy replays from and
        stores into it, and None computes every implementation fresh.
        Without a ``memo`` the run builds its design with
        :func:`~repro.api.design.design_parts` and simulates its golden
        traces itself.  With one (a :class:`~repro.api.design.DesignMemo`,
        held by thread-executor campaigns and daemon workers) it takes a
        fork of the memo's pristine bundle, the shared device and
        read-only golden, and the entry's golden traces.  The memo is a
        pure cache: the run's result is the same either way.
        """
        from repro.api.design import design_parts

        if memo is None:
            bundle, device, golden = design_parts(spec)
            traces = {}
        else:
            bundle, device, golden, traces = memo.context_parts(spec)
        packed = bundle.packed
        strategy = make_strategy(
            spec.strategy, packed, device, seed=spec.seed,
            preset=spec.effort_preset(), tiling=spec.tiling_options(),
            tile_cache=tile_cache,
        )
        return cls(packed=packed, device=device, golden=golden,
                   strategy=strategy, spec=spec, golden_traces=traces)

    def remaining_errors(self) -> list[ErrorRecord]:
        """Injected errors not yet corrected, in injection order."""
        done = set(self.corrected)
        return [e for e in self.errors if e.instance not in done]

    def detect(self) -> list[Mismatch]:
        """Golden-vs-layout comparison on the current stimulus; keeps
        the DUT's trace in ``dut_trace``."""
        # the old trace dies before the new one is recorded, so the two
        # are never held at once
        self.dut_trace = None
        mismatches, self.dut_trace = detect_on_layout(
            self.strategy.layout, self.trace
        )
        return mismatches

    def golden_trace(self, n_cycles: int, seed: int) -> GoldenTrace:
        """The golden trace of the ``(n_cycles, seed)`` random stimulus.

        The stimulus depends on the golden model and the spec's pattern
        count and engine, never on the injected errors, so a design
        memo's runs share one trace per stimulus.
        """
        spec = self.spec
        key = (n_cycles, spec.n_patterns, seed, spec.engine)
        trace = self.golden_traces.get(key)
        if trace is None:
            stimulus = random_stimulus(
                self.golden, n_cycles, spec.n_patterns, seed=seed
            )
            trace = GoldenTrace(
                self.golden, stimulus, spec.n_patterns, spec.engine
            )
            self.golden_traces[key] = trace
        return trace


def resolve_tile_cache(
    spec, shared: TileConfigCache = DEFAULT_TILE_CACHE
) -> TileConfigCache | None:
    """Map a spec's cache policy onto a cache object (or None).

    ``"shared"`` maps to ``shared``: the process-wide cache, or a daemon
    worker's resident cache.  This policy is the only way into the
    process-wide cache; nothing below :mod:`repro.api` reaches it.
    """
    if spec.cache == "off":
        return None
    if spec.cache == "private":
        return TileConfigCache()
    return shared


class Stage:
    """One pipeline stage: a name and a ``run(ctx, hooks)``.

    A ``composite`` stage runs inner stages itself (the diagnose loop
    runs localize and correct once per round); the hooks and
    ``stage_seconds`` see only those inner stages.
    """

    name = "stage"
    composite = False

    def run(self, ctx: RunContext, hooks: PipelineHooks) -> None:
        raise NotImplementedError


def run_timed_stage(stage: Stage, ctx: RunContext,
                    hooks: PipelineHooks) -> None:
    """Run one stage across the pipeline's only stage boundary.

    Every stage, top-level or inside the diagnose loop, crosses here.
    The boundary opens the stage's span (a no-op unless a tracer is
    armed), checks the cooperative run deadline, scopes the per-stage
    budget (``RunSpec.stage_timeouts``), opens the stage's profile
    scope (a no-op unless ``run_spec(profile=True)`` armed a profiler)
    and fires any armed chaos fault.  Chaos fires inside the stage
    budget: an injected hang must trip the per-stage deadline, not
    stall before it is armed.

    A non-composite stage also fires ``on_stage_start`` /
    ``on_stage_end`` and adds its wall-clock to ``ctx.stage_seconds``.
    Both land in a ``finally``, so a stage that dies mid-flight still
    accounts for the time it consumed.  The profile scope closes before
    ``on_stage_end`` fires, so hook work never lands in a profile.
    """
    name = stage.name
    timed = not stage.composite
    budget = (ctx.spec.stage_timeouts or {}).get(name)
    with maybe_span(name, category="stage"):
        if timed:
            hooks.on_stage_start(stage, ctx)
        ctx.current_stage = name
        check_deadline(name)
        t0 = time.perf_counter()
        try:
            with deadline_scope(
                Deadline(budget, label=f"stage:{name}") if budget else None
            ), maybe_profile(name):
                chaos_stage_event(name)
                stage.run(ctx, hooks)
        finally:
            if timed:
                seconds = time.perf_counter() - t0
                ctx.stage_seconds[name] = (
                    ctx.stage_seconds.get(name, 0.0) + seconds
                )
                hooks.on_stage_end(stage, ctx, seconds)


class DetectStage(Stage):
    """Inject, implement, emulate: does the design misbehave at all?"""

    name = "detect"

    def run(self, ctx: RunContext, hooks: PipelineHooks) -> None:
        spec = ctx.spec
        netlist = ctx.packed.netlist
        ctx.errors = inject_errors(
            netlist, spec.resolved_error_kinds(), seed=spec.error_seed,
            n_errors=spec.n_errors,
        )
        check_netlist(netlist)
        absorb_changes(ctx.packed, None)

        ctx.strategy.build_initial(meter=ctx.initial_effort)

        ctx.trace = ctx.golden_trace(spec.n_cycles, spec.seed)
        mismatches = ctx.detect()
        if not mismatches:
            # widen the net: longer run, more patterns
            ctx.notes.append("first stimulus missed the error; widened")
            ctx.trace = ctx.golden_trace(spec.n_cycles * 4, spec.seed + 1)
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
        remaining = max(1, ctx.spec.n_errors - len(ctx.corrected))
        localizer = ConeLocalizer(
            ctx.strategy, ctx.trace, ctx.dut_trace,
            goal_size=ctx.spec.goal_size,
            n_errors=remaining, tolerate_drain=ctx.spec.n_errors > 1,
            want_pairs=ctx.spec.correction == "cegis",
        )
        result = localizer.run(
            ctx.round_mismatches, max_probes=ctx.spec.max_probes,
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
        if ctx.spec.correction == "cegis":
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
        if ctx.spec.n_errors > 1 and target.instance not in candidates:
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
        trace = ctx.trace
        return len(compare_runs(
            replay_outputs(scratch, trace.stimulus, trace.n_patterns,
                           engine=trace.engine),
            trace.outputs,
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
        if ctx.spec.n_errors > 1:
            remaining = max(1, ctx.spec.n_errors - len(ctx.corrected))
            max_luts = min(2, remaining)
            pair_hints = [tuple(p) for p in (loc.sat_pairs or [])]
            # outputs deferred to later rounds belong to other faults —
            # a repair must not be rejected for leaving them broken
            ignore_outputs = set(loc.deferred_outputs)
        return synthesize_lut_fix(
            ctx.packed.netlist, ctx.trace, candidates,
            ctx.round_mismatches, seed=ctx.spec.seed,
            max_luts=max_luts, pair_hints=pair_hints,
            ignore_outputs=ignore_outputs,
        )


class DiagnoseLoop(Stage):
    """The outer diagnose→fix→re-detect loop (multi-error round driver).

    Runs :class:`LocalizeStage` then :class:`CorrectStage`, re-detects,
    and iterates until the stimulus comes back clean or the round
    budget (``max_rounds``, default one round per injected error) is
    exhausted.  Both inner stages cross :func:`run_timed_stage` like
    the top-level ones, so the hooks and ``stage_seconds`` see
    ``detect, localize, correct, verify`` and never ``diagnose``.  The
    loop's own work — its re-detects and in-loop proofs — lands in the
    ``diagnose`` span and profile row.

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
    #: one round's inner stages, in order
    round_stages = (LocalizeStage(), CorrectStage())

    def run(self, ctx: RunContext, hooks: PipelineHooks) -> None:
        try:
            budget = ctx.spec.effective_max_rounds()
            while True:
                check_deadline("diagnose.round")
                round_no = len(ctx.rounds) + 1
                ctx.probes_retired_this_round = 0
                with maybe_span("round", category="diagnose", round=round_no):
                    for stage in self.round_stages:
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
                            ctx.spec.verify in ("prove", "both")
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
        finally:
            # localization, the DUT trace's last reader, is over; the
            # verify stage and the result never read it
            ctx.dut_trace = None

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

        spec = ctx.spec
        proof = prove_equivalence(
            ctx.packed.netlist, ctx.golden,
            frames=spec.prove_frames or spec.n_cycles, seed=spec.seed,
        )
        if proof.proved:
            ctx.proved = True
            ctx.proof = proof.to_dict()
            ctx.proof_revision = ctx.packed.netlist.revision
            return None
        cex = proof.counterexample
        confirmed = counterexample_mismatches(
            ctx.packed.netlist, ctx.golden, cex, engine=spec.engine,
        )
        if not confirmed:
            ctx.notes.append(
                "in-loop proof counterexample not reproduced by the "
                "simulation kernel; leaving the verdict to the verify stage"
            )
            return None
        # one more pattern word carrying the counterexample, alongside
        # the random patterns every later verdict still leans on
        stimulus, n_patterns = ctx.trace.stimulus, ctx.trace.n_patterns
        pattern_bit = 1 << n_patterns
        merged = []
        for t in range(max(len(stimulus), len(cex))):
            cycle = dict(stimulus[t]) if t < len(stimulus) else {}
            if t < len(cex):
                for port, bit in cex[t].items():
                    if bit:
                        cycle[port] = cycle.get(port, 0) | pattern_bit
            merged.append(cycle)
        ctx.trace = GoldenTrace(ctx.golden, merged, n_patterns + 1, spec.engine)
        residual = ctx.detect()
        if residual:
            ctx.notes.append(
                "proof counterexample re-armed detection for round "
                f"{len(ctx.rounds) + 1}"
            )
        return residual


class VerifyStage(Stage):
    """Judge the fix (step 21): stimulus replay, SAT proof, or both.

    ``verify="simulate"`` judges the diagnose loop's final re-detection.
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
        if ctx.spec.verify in ("simulate", "both"):
            sim_ok = not ctx.remaining
            if not sim_ok:
                ctx.notes.append(
                    f"{len(ctx.remaining)} mismatches persist after fix"
                )
        if ctx.spec.verify in ("prove", "both"):
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

        revision = ctx.packed.netlist.revision
        if (
            ctx.proved
            and ctx.proof is not None
            and ctx.proof_revision == revision
        ):
            return  # the diagnose loop already proved this netlist
        spec = ctx.spec
        proof = prove_equivalence(
            ctx.packed.netlist, ctx.golden,
            frames=spec.prove_frames or spec.n_cycles, seed=spec.seed,
        )
        ctx.proved = proof.proved
        ctx.proof = proof.to_dict()
        if proof.proved:
            return
        ctx.counterexample = proof.counterexample
        mismatches = counterexample_mismatches(
            ctx.packed.netlist, ctx.golden, proof.counterexample,
            engine=spec.engine,
        )
        ctx.counterexample_confirmed = bool(mismatches)
        if spec.verify == "prove":
            # the replayed counterexample is the regression stimulus
            ctx.remaining = mismatches
        ctx.notes.append(
            f"proof found a counterexample at output {proof.cex_output} "
            f"({'confirmed' if mismatches else 'NOT reproduced'} "
            "by the compiled kernel)"
        )


class DebugPipeline:
    """Walks detect → :class:`DiagnoseLoop` → verify over a context.

    Each stage crosses :func:`run_timed_stage`, so per-stage accounting
    stays keyed by ``detect`` / ``localize`` / ``correct`` / ``verify``.
    Every physical-design commit of the walk fires ``on_commit`` and,
    when a tracer is armed, a ``commit`` instant in the open span.
    """

    #: the one stage walk every entry point runs
    stages = (DetectStage(), DiagnoseLoop(), VerifyStage())

    def __init__(self, hooks: PipelineHooks | None = None) -> None:
        self.hooks = hooks or PipelineHooks()

    def execute(self, ctx: RunContext) -> RunContext:
        hooks = self.hooks

        def on_commit(record) -> None:
            maybe_instant(
                "commit", category="route",
                description=record.description,
                cache_hit=record.cache_hit,
            )
            hooks.on_commit(ctx, record)

        previous_listener = ctx.strategy.commit_listener
        ctx.strategy.commit_listener = on_commit
        try:
            for stage in self.stages:
                run_timed_stage(stage, ctx, hooks)
        finally:
            ctx.strategy.commit_listener = previous_listener
        return ctx


@run_scope()
def run_spec(spec, hooks: PipelineHooks | None = None,
             tile_cache=_OWN_CACHE, return_context: bool = False,
             warm=None, tracer=None, profile: bool = False):
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
    applies, each step recorded in ``RunResult.degradations``.  A
    localization drain (:class:`~repro.errors.LocalizationDrained`) is
    retried only when the next rung changes the strategy.  A spec
    with no budgets, no retries, and no chaos takes a single attempt
    down the exact historical code path, bit-identical to the pre-
    resilience pipeline.

    ``spec.chaos`` is the only chaos input; fault selection is
    deterministic per spec, so re-running a chaos campaign reproduces
    the same failures.

    ``warm`` is an optional :class:`~repro.api.design.DesignMemo`, the
    one a thread-executor campaign or a daemon worker holds: each
    attempt takes its design from it (bundle fork, shared device and
    golden, the golden traces of the design's random stimuli) instead
    of building it.  The memo is a pure cache — the result is
    bit-identical with or without it.

    ``tracer`` (a :class:`repro.obs.Tracer`) arms structured tracing
    for the run: a root ``run`` span per attempt, with stage, round,
    probe and commit spans beneath it; a span an attempt dies in
    closes with status ``timeout`` or ``error``.  ``profile`` arms a
    :class:`~repro.obs.StageProfiler` that every stage boundary scopes
    (``diagnose`` included) and lands the top-N aggregation in
    ``RunResult.profile``.  These two are the only observability
    switches, and both are strictly additive: observation never
    changes the computed result.

    The whole call runs in :func:`repro.obs.collector.run_scope`: while
    it is the only run in flight in the process, the automatic cyclic
    collector is paused (what a run allocates mostly lives until it
    ends, so a collection would rescan the design heap and free little);
    while runs overlap (``CampaignRunner(workers>1)``) it is back in the
    caller's state.  The caller's state returns when the run leaves,
    however it ends.
    """
    from repro.api.result import RunResult
    from repro.resilience.budget import backoff_seconds, clamp_backoff
    from repro.resilience.chaos import (
        CACHE_FILE_KINDS,
        ChaosConfig,
        ChaosInjector,
        chaos_scope,
        corrupt_cache_file,
    )
    from repro.resilience.degrade import next_degraded
    from repro.resilience.failure import RunFailure
    from repro.tiling.cache import (
        RunCacheView,
        cache_file_path,
        load_tile_cache,
        save_tile_cache,
    )

    chaos_cfg = ChaosConfig.coerce(spec.chaos)
    fired = chaos_cfg.select(spec) if chaos_cfg is not None else []
    degradations: list = []

    # cache-dir persistence only makes sense when this run owns its
    # cache; a caller-supplied cache (e.g. the campaign runner's, shared
    # across concurrent workers) is attached and saved at the caller's
    # level instead
    owns_cache = tile_cache is _OWN_CACHE
    damaged: list[tuple[str, str]] = []
    if owns_cache:
        tile_cache = resolve_tile_cache(spec)
        if spec.cache_dir is not None and tile_cache is not None:
            for fault in fired:
                # damage a stored entry *before* attaching the store: a
                # read of it must quarantine it, never crash the run
                if fault.kind in CACHE_FILE_KINDS:
                    path = corrupt_cache_file(
                        cache_file_path(spec.cache_dir), fault.kind,
                        seed=chaos_cfg.seed,
                    )
                    if path is not None:
                        damaged.append((fault.kind, path))
            load_tile_cache(spec.cache_dir, tile_cache)
    # the run's own replay verdicts, counted apart from anything sharing
    # the cache, become RunResult.cache
    cache_view = RunCacheView(tile_cache) if tile_cache is not None else None

    # stage, worker and replay faults fire through one injector shared
    # by every attempt (worker kinds only inside a supervised worker
    # process; inert under the thread executor)
    injector = ChaosInjector(fired) if fired else None

    profiler = StageProfiler() if profile else None
    attempts_allowed = spec.retries + 1
    failures: list[RunFailure] = []
    current = spec
    run_cache = cache_view
    ctx: RunContext | None = None
    status = "failed"
    attempt = 1
    t_run = time.perf_counter()
    for attempt in range(1, attempts_allowed + 1):
        ctx = None
        t0 = time.perf_counter()
        try:
            ctx = RunContext.from_spec(current, tile_cache=run_cache,
                                       memo=warm)
            ctx.attempt = attempt
            run_deadline = (
                Deadline(current.timeout_s, label="run")
                if current.timeout_s else None
            )
            with tracer_scope(tracer), profiler_scope(profiler), \
                    maybe_span("run", category="run",
                               design=current.design_label,
                               digest=current.digest(),
                               strategy=current.strategy,
                               error_seed=current.error_seed,
                               n_errors=current.n_errors,
                               attempt=attempt), \
                    deadline_scope(run_deadline), chaos_scope(injector):
                DebugPipeline(hooks=hooks).execute(ctx)
                maybe_set_attrs(fixed=ctx.fixed, rounds=len(ctx.rounds))
            status = "ok"
            break
        except DeadlineExceeded as exc:
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
            stage = ctx.current_stage if ctx is not None else "setup"
            failures.append(RunFailure.from_exception(
                exc, stage=stage,
                elapsed_s=time.perf_counter() - t0, attempt=attempt,
            ))
            if attempt >= attempts_allowed:
                status = "failed"
                break
            step = next_degraded(current, stage)
            if isinstance(exc, LocalizationDrained) and (
                step is None or step[1]["field"] != "strategy"
            ):
                # only another localization strategy can change a
                # drain; cache on/off and the correction method never
                # change a localization verdict
                status = "failed"
                break
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

    # a damaged entry degraded the run only if the run read it: that
    # lookup quarantined the file, so it is gone from the store
    for kind, path in damaged:
        if not os.path.exists(path):
            degradations.append({
                "field": "cache_file", "from": "warm", "to": "cold",
                "stage": "setup", "chaos": kind,
            })
    if injector is not None and injector.denied:
        degradations.append({
            "field": "cache_replay", "from": "replay", "to": "fresh-pnr",
            "stage": "commit", "denied": injector.denied, "chaos": True,
        })
    if status == "ok" and degradations:
        status = "degraded"

    cache_delta = cache_view.delta() if cache_view is not None else None
    if owns_cache and tile_cache is not None and spec.cache_dir is not None:
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
        result = RunResult.from_spec(
            spec, status=status, failures=failure_dicts,
            degradations=degradations, attempts=attempt,
            wall_seconds=wall, cache=cache_delta, profile=profile_data,
        )
    if return_context:
        return result, ctx
    return result

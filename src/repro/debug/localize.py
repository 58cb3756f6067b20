"""Error localization by cone bisection over observation points.

The paper's loop: observation logic is inserted where the designer
suspects trouble, the design is re-emulated, and the flag tells whether
the error lies upstream.  The localizer mechanizes the designer:

1. seed the candidate set with the intersection of the sequential
   fanin cones of every failing output (the error must corrupt each);
2. repeatedly pick the probe net whose cone splits the candidates most
   evenly, insert an observation point (one tile-confined commit —
   *this* is the CAD cost the paper attacks), re-emulate, and keep
   either the probe's cone or its complement;
3. stop when the candidates fit the goal size or probes run out.

A probe verdict compares the observed net with the golden model's word
on it, read from the round's :class:`~repro.debug.detect.GoldenTrace`
— the one golden simulation of the stimulus that detection, SAT pruning
and correction also read.  The localizer never simulates the golden
model itself.

**Multiple interacting faults** break the intersection step: outputs
failing because of *different* errors share no common cone.  Seeding is
therefore greedy — failing outputs are folded in sorted order and an
output whose cone would *empty* the intersection is deferred to a later
diagnosis round (``LocalizationResult.group_outputs`` /
``deferred_outputs``).  With a single fault nothing is ever deferred,
so the historical trajectories are reproduced bit-for-bit.

The comparison is heuristic in the presence of reconvergent masking: a
probe matching the golden value removes its cone even though an
upstream error might be masked there.  Wide pattern words (default 64)
make that unlikely.  Nothing re-runs localization when it happens: the
oracle correction (:class:`repro.api.pipeline.CorrectStage`) falls back
to the next uncorrected injected error, and the re-detect after each fix
decides whether another diagnosis round runs.

Two engines drive the loop — the trace's engine, bit-identical
verdicts and candidates:

* ``engine="compiled"`` — one shared instruction-tape kernel
  (:mod:`repro.netlist.compiled`) is kept current across probe commits
  via incremental recompile, and a :class:`~repro.netlist.cones.ConeIndex`
  turns per-candidate cone queries into single big-int operations, so
  probe selection is O(V+E) per round instead of O(V·E).  Each probe
  verdict replays a **cone slice** of the tape — only the sequential
  fanin of the observed probe output — instead of the whole design,
  which is where the emulate phase's wall-clock goes on the large
  designs;
* ``engine="interpreted"`` — the retained baseline: per-candidate BFS
  cone walks and full replay on the instance-walking simulator.

Per-phase wall-clock (seed / pick / emulate / commit) accumulates in
``LocalizationResult.timings`` for the performance benchmark.  The
commit phase runs on the commit-path substrate: fabric-table routing
and incremental-bbox annealing on a cold cache, and precomputed
tile-configuration replay (:mod:`repro.tiling.cache`) when an identical
reconfiguration was committed before.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.debug.detect import GoldenTrace, Mismatch
from repro.debug.instrument import add_observation_point
from repro.debug.strategies import BaseStrategy
from repro.emu.emulator import Emulator
from repro.errors import DebugFlowError, LocalizationDrained
from repro.netlist.cones import ConeIndex
from repro.netlist.core import Netlist, port_name
from repro.obs.metrics import METRICS
from repro.obs.trace import maybe_span
from repro.resilience.budget import check_deadline


@dataclass
class ProbeStep:
    """One localization probe and its verdict."""

    probe_instance: str
    mismatch: bool
    candidates_before: int
    candidates_after: int


@dataclass
class LocalizationResult:
    candidates: set[str]
    steps: list[ProbeStep] = field(default_factory=list)
    #: wall-clock seconds per phase: seed/pick/emulate/commit (plus
    #: "sat" when SAT-guided pruning ran)
    timings: dict[str, float] = field(default_factory=dict)
    #: candidates eliminated by the SAT pruner instead of by probes
    sat_eliminated: int = 0
    #: solver queries made / refuted by the SAT pruner
    sat_checks: int = 0
    sat_unsat: int = 0
    #: diagnosis round this localization served (1-based)
    round: int = 1
    #: failing outputs this round's candidate seeding explains
    group_outputs: list[str] = field(default_factory=list)
    #: failing outputs deferred to a later round (no common cone)
    deferred_outputs: list[str] = field(default_factory=list)
    #: observation-point names committed by this run (``loc<i>``) — the
    #: pipeline retires them before the next round's probes go in
    probe_points: list[str] = field(default_factory=list)
    #: SAT-feasible candidate pairs as joint two-fault explanations,
    #: best first (multi-error diagnosis only)
    sat_pairs: list = field(default_factory=list)
    #: candidate k-subsets the solver refuted as joint explanations
    sat_subsets_refuted: int = 0
    #: probe verdicts eliminated every candidate — interacting faults
    #: poisoned the cone logic (multi-error sessions recover by falling
    #: back to oracle correction; single-fault runs raise instead)
    drained: bool = False

    @property
    def n_probes(self) -> int:
        return len(self.steps)


class ConeLocalizer:
    """Drives observation-point bisection on top of a strategy.

    ``trace`` is the golden model's response to the round's stimulus;
    probe verdicts compare against its per-net words, and the DUT runs
    on its engine.  ``n_errors`` is the number of faults still believed
    live in the DUT; it sizes the SAT pruner's cardinality bound.
    """

    def __init__(
        self,
        strategy: BaseStrategy,
        trace: GoldenTrace,
        goal_size: int = 4,
        n_errors: int = 1,
        tolerate_drain: bool | None = None,
        want_pairs: bool = False,
    ) -> None:
        self.strategy = strategy
        self.trace = trace
        self.engine = trace.engine
        self.goal_size = goal_size
        self.n_errors = max(1, n_errors)
        #: surrender (instead of raise) when probe verdicts drain the
        #: candidate set; defaults to on whenever several faults are live
        self.tolerate_drain = (
            self.n_errors > 1 if tolerate_drain is None else tolerate_drain
        )
        #: run the k-subset pair-ranking queries after the probe loop —
        #: only worth the solver time when a consumer (joint CEGIS)
        #: will read ``LocalizationResult.sat_pairs``
        self.want_pairs = want_pairs
        self._input_names = {
            port_name(pi)
            for pi in strategy.packed.netlist.primary_inputs()
        }

    def seed_candidates(
        self, mismatches: list[Mismatch]
    ) -> tuple[set[str], list[str], list[str]]:
        """Greedy common-cone intersection of the failing outputs.

        Returns ``(candidates, group, deferred)``: the candidate
        instance names, the outputs whose cones were folded in, and the
        outputs deferred because their cone shares nothing with the
        running intersection (a *different* fault's symptom).  With one
        fault every failing output joins the group, reproducing the
        historical strict intersection bit-for-bit.
        """
        if not mismatches:
            raise DebugFlowError("cannot localize without a failing output")
        netlist = self.strategy.packed.netlist
        po_by_name = {
            port_name(po): po for po in netlist.primary_outputs()
        }
        candidates: set[str] | None = None
        group: list[str] = []
        deferred: list[str] = []
        for name in sorted({m.output for m in mismatches}):
            po = po_by_name.get(name)
            if po is None:
                continue
            cone = netlist.fanin_cone([po], stop_at_ffs=False)
            if candidates is None:
                candidates, group = cone, [name]
            elif candidates & cone:
                candidates &= cone
                group.append(name)
            else:
                deferred.append(name)
        if not candidates:
            raise DebugFlowError("failing outputs have no common cone")
        return (
            {
                n for n in candidates
                if netlist.has_instance(n) and not netlist.instance(n).is_io
            },
            group,
            deferred,
        )

    def _seed_bitset(
        self, cones: ConeIndex, mismatches: list[Mismatch]
    ) -> tuple[int, list[str], list[str]]:
        """Bitset twin of :meth:`seed_candidates` (identical result)."""
        if not mismatches:
            raise DebugFlowError("cannot localize without a failing output")
        netlist = self.strategy.packed.netlist
        po_by_name = {
            port_name(po): po for po in netlist.primary_outputs()
        }
        candidates: int | None = None
        group: list[str] = []
        deferred: list[str] = []
        for name in sorted({m.output for m in mismatches}):
            po = po_by_name.get(name)
            if po is None:
                continue
            cone = cones.fanin(po.name)
            if candidates is None:
                candidates, group = cone, [name]
            elif candidates & cone:
                candidates &= cone
                group.append(name)
            else:
                deferred.append(name)
        if not candidates:
            raise DebugFlowError("failing outputs have no common cone")
        return candidates & cones.logic_mask, group, deferred

    # ------------------------------------------------------------------

    def run(
        self,
        mismatches: list[Mismatch],
        max_probes: int = 8,
        on_probe=None,
    ) -> LocalizationResult:
        """One probe loop, two candidate representations.

        The loop body (commit, emulate, verdict, bookkeeping) is shared;
        only the candidate-set operations differ per engine, which is
        what keeps the two engines bit-identical by construction.
        ``on_probe``, when given, is called with each finished
        :class:`ProbeStep` — the pipeline's progress hook.
        """
        timings = {"seed": 0.0, "pick": 0.0, "emulate": 0.0, "commit": 0.0}
        netlist = self.strategy.packed.netlist
        t0 = time.perf_counter()
        ops: _CandidateOps
        if self.engine == "compiled":
            ops = _BitsetCandidateOps(self, netlist)
        else:
            ops = _SetCandidateOps(self, netlist)
        ops.seed(mismatches)
        timings["seed"] = time.perf_counter() - t0
        result = LocalizationResult(candidates=set(), timings=timings)
        result.group_outputs = list(ops.group)
        result.deferred_outputs = list(ops.deferred)
        emulator: Emulator | None = None

        pruner = None
        group_mismatches = [
            m for m in mismatches if m.output in set(ops.group)
        ]
        matched_probes: list[str] = []
        if (
            getattr(self.strategy, "sat_localization", False)
            and group_mismatches
        ):
            from repro.sat.diagnose import SuspectPruner

            timings["sat"] = 0.0
            pruner = SuspectPruner(
                netlist, self.trace, group_mismatches,
                seed=self.strategy.seed,
                n_errors=self.n_errors,
            )

        for probe_no in range(max_probes):
            check_deadline("localize.probe")
            if pruner is not None and ops.count() > self.goal_size:
                t0 = time.perf_counter()
                removed = pruner.prune(ops.names(), matched_probes)
                if removed:
                    ops.remove(removed)
                    result.sat_eliminated += len(removed)
                timings["sat"] += time.perf_counter() - t0
            before = ops.count()
            if before <= self.goal_size:
                break
            t0 = time.perf_counter()
            probe = ops.pick()
            timings["pick"] += time.perf_counter() - t0
            if probe is None:
                break
            probe_net = netlist.instance(probe).output.name

            with maybe_span("probe", category="localize",
                            probe=probe) as probe_span:
                t0 = time.perf_counter()
                changes, _ = add_observation_point(
                    netlist, [probe_net], f"loc{probe_no}", sticky=False
                )
                self.strategy.commit(changes, anchor_instance=probe)
                timings["commit"] += time.perf_counter() - t0
                result.probe_points.append(f"loc{probe_no}")

                t0 = time.perf_counter()
                if emulator is None:
                    emulator = Emulator(
                        self.strategy.layout, engine=self.engine
                    )
                    if self.engine == "compiled":
                        # sync the shared kernel incrementally rather
                        # than letting first use pay a full recompile
                        emulator.refresh(changes=changes)
                else:
                    emulator.refresh(
                        layout=self.strategy.layout, changes=changes
                    )
                mismatch = self._probe_disagrees(
                    emulator, probe_net, f"loc{probe_no}"
                )
                timings["emulate"] += time.perf_counter() - t0

                if not mismatch:
                    matched_probes.append(probe_net)
                ops.apply_verdict(probe, mismatch)
                after = ops.count()
                step = ProbeStep(probe, mismatch, before, after)
                result.steps.append(step)
                METRICS.inc("repro_probes_total")
                if probe_span is not None:
                    probe_span.attrs.update(
                        mismatch=bool(mismatch),
                        candidates_before=before,
                        candidates_after=after,
                    )
                if on_probe is not None:
                    on_probe(step)
            if after == 0:
                if not self.tolerate_drain:
                    raise LocalizationDrained(
                        "localization eliminated every candidate "
                        "(reconvergent masking); rerun with more patterns"
                    )
                # with several live faults a matched probe may sit
                # downstream of one fault yet masked by another, so the
                # cone arithmetic can legitimately drain; surrender the
                # round and let the pipeline fall back to back-annotation
                result.drained = True
                break
        result.candidates = ops.names()
        if pruner is not None:
            if (
                self.want_pairs
                and self.n_errors > 1
                and len(result.candidates) > 1
            ):
                t0 = time.perf_counter()
                feasible, _refuted = pruner.rank_pairs(
                    result.candidates, matched_probes
                )
                result.sat_pairs = [list(pair) for pair in feasible]
                timings["sat"] += time.perf_counter() - t0
            result.sat_checks = pruner.n_checks
            result.sat_unsat = pruner.n_unsat
            result.sat_subsets_refuted = pruner.n_subset_refuted
        return result

    def _pick_probe_bitset(
        self, cones: ConeIndex, cand: int, n_cand: int
    ) -> int | None:
        """Bitset twin of :meth:`_pick_probe`: identical choice, one
        int-AND + popcount per candidate instead of a BFS."""
        target = n_cand / 2
        best_idx, best_score = None, None
        for i in cones.sorted_indices:
            if not (cand >> i) & 1:
                continue
            cone_size = (cones.fanin_by_index(i) & cand).bit_count()
            if cone_size == 0 or cone_size == n_cand:
                continue
            score = abs(cone_size - target)
            if best_score is None or score < best_score:
                best_idx, best_score = i, score
        if best_idx is None:
            ordered = [i for i in cones.sorted_indices if (cand >> i) & 1]
            return ordered[len(ordered) // 2] if ordered else None
        return best_idx

    def _pick_probe(
        self, netlist: Netlist, candidates: set[str]
    ) -> str | None:
        """Candidate whose cone splits the candidate set most evenly."""
        target = len(candidates) / 2
        best_name, best_score = None, None
        for name in sorted(candidates):
            inst = netlist.instance(name)
            if inst.output is None:
                continue
            cone_size = len(
                netlist.fanin_cone([inst], stop_at_ffs=False) & candidates
            )
            score = abs(cone_size - target)
            # degenerate splits teach nothing
            if cone_size in (0, len(candidates)):
                continue
            if best_score is None or score < best_score:
                best_name, best_score = name, score
        if best_name is None:
            # all cones degenerate: fall back to any candidate
            ordered = sorted(candidates)
            return ordered[len(ordered) // 2] if ordered else None
        return best_name

    def _probe_disagrees(
        self, emulator: Emulator, probe_net: str, obs_name: str
    ) -> bool:
        """Emulate and compare the probe output to the golden net value."""
        probe_port = f"obs_probe_{obs_name}"
        # replay only the sequential fanin slice of the observed output
        # when the engine offers one — bit-identical verdict (the slice
        # is fanin-closed), a fraction of the evaluation; otherwise the
        # whole design steps
        runner = emulator.cone_runner((probe_port,)) or emulator
        n_patterns = self.trace.n_patterns
        runner.reset(n_patterns)
        for cycle_in, golden_nets in zip(
            self.trace.stimulus, self.trace.nets
        ):
            inputs = {
                name: cycle_in.get(name, 0) for name in self._input_names
            }
            outputs = runner.step(inputs, n_patterns)
            probe_value = outputs.get(probe_port)
            golden_value = golden_nets.get(probe_net)
            if probe_value is None or golden_value is None:
                continue
            if probe_value != golden_value:
                return True
        return False


class _CandidateOps:
    """Candidate-set operations the shared probe loop is written over."""

    #: failing outputs folded into / deferred by the greedy seeding
    group: list[str] = []
    deferred: list[str] = []

    def seed(self, mismatches: list[Mismatch]) -> None:
        raise NotImplementedError

    def count(self) -> int:
        raise NotImplementedError

    def pick(self) -> str | None:
        raise NotImplementedError

    def apply_verdict(self, probe: str, mismatch: bool) -> None:
        raise NotImplementedError

    def remove(self, names: set[str]) -> None:
        raise NotImplementedError

    def names(self) -> set[str]:
        raise NotImplementedError


class _SetCandidateOps(_CandidateOps):
    """Retained baseline: name sets and per-query BFS cone walks."""

    def __init__(self, localizer: ConeLocalizer, netlist: Netlist) -> None:
        self.localizer = localizer
        self.netlist = netlist
        self.candidates: set[str] = set()
        self.group: list[str] = []
        self.deferred: list[str] = []

    def seed(self, mismatches: list[Mismatch]) -> None:
        self.candidates, self.group, self.deferred = (
            self.localizer.seed_candidates(mismatches)
        )

    def count(self) -> int:
        return len(self.candidates)

    def pick(self) -> str | None:
        return self.localizer._pick_probe(self.netlist, self.candidates)

    def apply_verdict(self, probe: str, mismatch: bool) -> None:
        cone = self.netlist.fanin_cone(
            [self.netlist.instance(probe)], stop_at_ffs=False
        )
        if mismatch:
            self.candidates &= cone
            self.candidates.add(probe)
        else:
            self.candidates -= (cone | {probe})

    def remove(self, names: set[str]) -> None:
        self.candidates -= names

    def names(self) -> set[str]:
        return self.candidates


class _BitsetCandidateOps(_CandidateOps):
    """Compiled-path twin: one int bitset, precomputed cone index."""

    def __init__(self, localizer: ConeLocalizer, netlist: Netlist) -> None:
        self.localizer = localizer
        self.cones = ConeIndex(netlist)
        self.candidates = 0
        self.group: list[str] = []
        self.deferred: list[str] = []

    def seed(self, mismatches: list[Mismatch]) -> None:
        self.candidates, self.group, self.deferred = (
            self.localizer._seed_bitset(self.cones, mismatches)
        )

    def count(self) -> int:
        return self.candidates.bit_count()

    def pick(self) -> str | None:
        idx = self.localizer._pick_probe_bitset(
            self.cones, self.candidates, self.candidates.bit_count()
        )
        return None if idx is None else self.cones.name_of(idx)

    def apply_verdict(self, probe: str, mismatch: bool) -> None:
        idx = self.cones.bit(probe)
        cone = self.cones.fanin_by_index(idx)
        probe_bit = 1 << idx
        if mismatch:
            self.candidates = (self.candidates & cone) | probe_bit
        else:
            self.candidates &= ~(cone | probe_bit)

    def remove(self, names: set[str]) -> None:
        for name in names:
            if self.cones.has(name):
                self.candidates &= ~(1 << self.cones.bit(name))

    def names(self) -> set[str]:
        return self.cones.names_of(self.candidates)

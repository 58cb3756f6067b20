"""Error localization by cone bisection over observation points.

The paper's loop: observation logic is inserted where the designer
suspects trouble, the design is re-emulated, and the flag tells whether
the error lies upstream.  The localizer mechanizes the designer:

1. seed the candidate set with the intersection of the sequential
   fanin cones of every failing output (the error must corrupt each);
2. repeatedly pick the probe net whose cone splits the candidates most
   evenly, insert an observation point (one tile-confined commit —
   *this* is the CAD cost the paper attacks), re-emulate, and keep
   either the probe's cone or its complement (a probe picked again in
   the same round reuses its verdict and commits nothing: the DUT's
   logic does not change within a round);
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

One algorithm, two candidate representations.  Seed, pick and verdict
are written once, in :class:`ConeLocalizer`, over a small adapter chosen
by the trace's engine.  Every cone holds its own root, so a verdict is
``candidates & cone(probe)`` on a mismatch and ``candidates`` minus
``cone(probe)`` on a match; the adapter supplies only ``cone``,
``size``, ``members`` (in instance-name order), ``without``, ``logic``
(drops IO instances) and the name conversions.  The engines therefore
agree on every verdict and candidate set:

* ``engine="compiled"`` — candidates are an int bitset and a
  :class:`~repro.netlist.cones.ConeIndex` answers each cone query with
  one precomputed big int, so probe selection is O(V+E) per round
  instead of O(V·E).  One shared instruction-tape kernel
  (:mod:`repro.netlist.compiled`) is kept current across probe commits
  via incremental recompile, and each probe verdict replays a **cone
  slice** of the tape — only the sequential fanin of the observed
  probe output — instead of the whole design, which is where the
  emulate phase's wall-clock goes on the large designs;
* ``engine="interpreted"`` — the retained baseline: candidates are a
  set of instance names, each cone query a BFS walk, and each verdict
  a full replay on the instance-walking simulator.

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
        *,
        tolerate_drain: bool,
        want_pairs: bool = False,
    ) -> None:
        self.strategy = strategy
        self.trace = trace
        self.engine = trace.engine
        self.goal_size = goal_size
        self.n_errors = max(1, n_errors)
        #: surrender (instead of raise) when probe verdicts drain the
        #: candidate set — the pipeline's choice for multi-fault sessions
        self.tolerate_drain = tolerate_drain
        #: run the k-subset pair-ranking queries after the probe loop —
        #: only worth the solver time when a consumer (joint CEGIS)
        #: will read ``LocalizationResult.sat_pairs``
        self.want_pairs = want_pairs
        self._input_names = {
            port_name(pi)
            for pi in strategy.packed.netlist.primary_inputs()
        }

    def _seed(
        self, rep, mismatches: list[Mismatch]
    ) -> tuple[object, list[str], list[str]]:
        """Greedy common-cone intersection of the failing outputs.

        Returns ``(candidates, group, deferred)``: the logic instances
        in the intersection, the outputs whose cones were folded in, and
        the outputs deferred because their cone shares nothing with the
        running intersection (a *different* fault's symptom).  With one
        fault every failing output joins the group: the strict
        intersection.
        """
        if not mismatches:
            raise DebugFlowError("cannot localize without a failing output")
        po_by_name = {
            port_name(po): po.name
            for po in self.strategy.packed.netlist.primary_outputs()
        }
        candidates = None
        group: list[str] = []
        deferred: list[str] = []
        for name in sorted({m.output for m in mismatches}):
            po = po_by_name.get(name)
            if po is None:
                continue
            cone = rep.cone(rep.member(po))
            if candidates is None:
                candidates, group = cone, [name]
            elif candidates & cone:
                candidates = candidates & cone
                group.append(name)
            else:
                deferred.append(name)
        if not candidates:
            raise DebugFlowError("failing outputs have no common cone")
        return rep.logic(candidates), group, deferred

    @staticmethod
    def _pick(rep, candidates, n_candidates: int):
        """The candidate whose cone splits the candidates most evenly."""
        cone, size = rep.cone, rep.size
        members = rep.members(candidates)
        target = n_candidates / 2
        best, best_score = None, n_candidates
        for member in members:
            # a cone holds its root, so it keeps at least one candidate;
            # one keeping every candidate is a degenerate split
            kept = size(cone(member) & candidates)
            if kept == n_candidates:
                continue
            score = abs(kept - target)
            if score < best_score:
                best, best_score = member, score
        if best is None:
            # all cones degenerate: fall back to the middle candidate
            return members[len(members) // 2]
        return best

    @staticmethod
    def _verdict(rep, candidates, probe, mismatch: bool):
        """Keep the probe's cone on a mismatch, clear it on a match."""
        cone = rep.cone(probe)
        return candidates & cone if mismatch else rep.without(candidates, cone)

    def run(
        self,
        mismatches: list[Mismatch],
        max_probes: int = 8,
        on_probe=None,
    ) -> LocalizationResult:
        """One probe loop over the engine's candidate representation.

        Seed, pick and verdict are written once; only the adapter's
        primitives differ per engine.  ``on_probe``, when given, is
        called with each finished :class:`ProbeStep` — the pipeline's
        progress hook.
        """
        timings = {"seed": 0.0, "pick": 0.0, "emulate": 0.0, "commit": 0.0}
        netlist = self.strategy.packed.netlist
        t0 = time.perf_counter()
        rep = (
            _BitsetCandidates(netlist) if self.engine == "compiled"
            else _NameSetCandidates(netlist)
        )
        candidates, group, deferred = self._seed(rep, mismatches)
        timings["seed"] = time.perf_counter() - t0
        result = LocalizationResult(
            candidates=set(), timings=timings,
            group_outputs=group, deferred_outputs=deferred,
        )
        emulator: Emulator | None = None

        pruner = None
        group_mismatches = [m for m in mismatches if m.output in group]
        matched_probes: list[str] = []
        #: verdict per probe committed this round, for repeat picks
        verdicts: dict[str, bool] = {}
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
            if pruner is not None and rep.size(candidates) > self.goal_size:
                t0 = time.perf_counter()
                removed = pruner.prune(rep.names(candidates), matched_probes)
                if removed:
                    candidates = rep.without(
                        candidates, rep.of_names(removed)
                    )
                    result.sat_eliminated += len(removed)
                timings["sat"] += time.perf_counter() - t0
            before = rep.size(candidates)
            if before <= self.goal_size:
                break
            t0 = time.perf_counter()
            member = self._pick(rep, candidates, before)
            timings["pick"] += time.perf_counter() - t0
            probe = rep.name(member)
            probe_net = netlist.instance(probe).output.name

            with maybe_span("probe", category="localize",
                            probe=probe) as probe_span:
                mismatch = verdicts.get(probe)
                if mismatch is None:
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
                            # sync the kernel incrementally, not by a
                            # full recompile on first use
                            emulator.refresh(changes=changes)
                    else:
                        emulator.refresh(
                            layout=self.strategy.layout, changes=changes
                        )
                    mismatch = verdicts[probe] = self._probe_disagrees(
                        emulator, probe_net, f"loc{probe_no}"
                    )
                    timings["emulate"] += time.perf_counter() - t0

                if not mismatch:
                    matched_probes.append(probe_net)
                candidates = self._verdict(rep, candidates, member, mismatch)
                after = rep.size(candidates)
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
        result.candidates = rep.names(candidates)
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


class _BitsetCandidates:
    """``compiled``: a candidate set is one int bitset over a
    :class:`ConeIndex` (bit ``i`` = instance ``i``), so every cone
    query is a list read and every set operation one big-int op."""

    size = staticmethod(int.bit_count)

    def __init__(self, netlist: Netlist) -> None:
        index = ConeIndex(netlist)
        self.cone = index.fanin_by_index
        self.member = index.bit
        self.name = index.name_of
        self.names = index.names_of
        self.of_names = index.mask_of
        self._order = index.sorted_indices
        self._logic = index.logic_mask

    def members(self, candidates: int) -> list[int]:
        """Candidate bit indices in instance-name order."""
        return [i for i in self._order if candidates >> i & 1]

    @staticmethod
    def without(candidates: int, other: int) -> int:
        return candidates & ~other

    def logic(self, candidates: int) -> int:
        return candidates & self._logic


class _NameSetCandidates:
    """``interpreted``: a candidate set is a set of instance names and
    every cone query a :meth:`Netlist.fanin_cone` walk."""

    size = staticmethod(len)
    members = staticmethod(sorted)
    names = of_names = staticmethod(set)

    def __init__(self, netlist: Netlist) -> None:
        self.netlist = netlist

    def cone(self, name: str) -> set[str]:
        return self.netlist.fanin_cone(
            [self.netlist.instance(name)], stop_at_ffs=False
        )

    @staticmethod
    def member(name: str) -> str:
        return name

    name = member

    @staticmethod
    def without(candidates: set[str], other: set[str]) -> set[str]:
        return candidates - other

    def logic(self, candidates: set[str]) -> set[str]:
        instance = self.netlist.instance
        return {n for n in candidates if not instance(n).is_io}

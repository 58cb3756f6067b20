"""SAT-guided suspect pruning for the ``"sat"`` localization strategy.

Cone bisection pays one tile-confined P&R commit per bit of
information.  This module extracts information that is *free* of
commits: before each probe, it asks the solver whether the round's
observed discrepancies could even be explained by an error behind a
given suspect, and discards whole cone subsets when the answer is no.

The encoding is the rtl-repair-style relaxation.  The *golden* netlist
is unrolled to the first observed failure cycle with the round's
stimulus applied as constants (so everything upstream of the suspects
constant-folds away), and each selected suspect LUT ``c`` is
MUX-relaxed: its output becomes ``s_c ? free_{c,t} : original``, with
the selector variables ``s_c`` driven by solver assumptions.  The
observations — every functional primary-output value the DUT actually
produced up to that cycle, plus every probe that *matched* golden so
far — are asserted as unit clauses.

**Single-fault mode** (``n_errors == 1``, the historical behavior):
for one suspect at a time the solver is asked — *with only ``c``
freed, can the golden circuit reproduce what the DUT did?*

* **SAT** — an error influencing the observations only through ``c``
  remains possible; ``c`` stays.
* **UNSAT** — no behavior at ``c``'s output explains the observations,
  so the real error must reach an observation point along a path that
  avoids ``c``.  Every candidate whose observation paths *all* run
  through ``c`` (computed by a reverse reachability walk over the DUT
  with ``c`` deleted) is eliminated in one stroke — including ``c``
  itself, since an error *at* ``c`` is a special case of freeing it.

**Multi-fault mode** (``n_errors == k > 1``): one freed output can no
longer explain interacting faults, so *every* eligible golden instance
gets a selector and a sequential-counter cardinality constraint
(:func:`repro.sat.cnf.add_at_most_k`) caps the number of simultaneous
relaxations at ``k``.  The per-suspect query forces ``s_c`` true and
lets the solver spend the remaining ``k-1`` frees anywhere.  UNSAT is
then a statement about candidate *sets*: if any true error were
dominated by ``c``, freeing ``c`` would stand in for it and the other
true errors could claim their own selectors — the query would be SAT.
So an UNSAT still soundly eliminates exactly the cone subset dominated
by ``c``, for any number of injected faults up to ``k``.

:meth:`SuspectPruner.rank_pairs` runs the complementary k-subset query:
free *exactly* a candidate pair ``{a, b}`` (all other selectors
assumed false) and ask whether the pair jointly explains every
observation.  SAT pairs are feasible joint diagnoses, ranked for the
CEGIS correction stage; an UNSAT refutes the *set* — it can never
contain the complete true error set, because freeing a superset of the
true sites always admits the DUT's actual behavior.

The pruner is engine-independent (pure name sets and netlist walks) and
deterministic: suspect selection order, pattern choice, and the seeded
solver are all functions of the run's inputs, which is what keeps the
``"sat"`` strategy's probe trajectory bit-reproducible.
"""

from __future__ import annotations

from repro.debug.detect import GoldenTrace, Mismatch
from repro.netlist.cones import ConeIndex
from repro.netlist.core import Netlist, port_name
from repro.resilience.budget import check_deadline
from repro.rng import derive_seed
from repro.sat.cnf import CNF, GateBuilder, add_at_most_k
from repro.sat.encode import CircuitEncoder
from repro.sat.solver import Solver


class SuspectPruner:
    """Per-localization helper; one instance drives every probe round.

    ``trace`` is the golden model's response to the round's stimulus:
    the encoding unrolls its golden netlist under its stimulus and
    reads its per-net words as the observed golden values.
    ``n_errors`` is the number of faults the diagnosis must account for
    simultaneously — the cardinality bound of the relaxation.
    ``max_relax`` caps the multi-fault encoding: when the golden
    netlist has more eligible instances than this, multi-fault pruning
    is skipped (soundly — skipping never eliminates anything).
    """

    def __init__(
        self,
        dut: Netlist,
        trace: GoldenTrace,
        mismatches: list[Mismatch],
        max_checks: int = 4,
        seed: int = 0,
        n_errors: int = 1,
        max_relax: int = 1200,
    ) -> None:
        self.dut = dut
        self.trace = trace
        self.golden = trace.golden
        self.max_checks = max_checks
        self.seed = seed
        self.n_errors = max(1, n_errors)
        self.max_relax = max_relax
        first = min(mismatches, key=lambda m: (m.cycle, m.output))
        #: observation window: frames 0..cycle inclusive
        self.cycle = first.cycle
        #: the single pattern the encoding reasons about — the lowest
        #: failing bit of the earliest mismatch
        self.pattern = (first.diff_mask & -first.diff_mask).bit_length() - 1
        self._diff = {(m.cycle, m.output): m.diff_mask for m in mismatches}
        self._out_net = {
            port_name(po): po.inputs[0].name
            for po in self.golden.primary_outputs()
        }
        #: counters surfaced through LocalizationResult
        self.n_checks = 0
        self.n_unsat = 0
        #: k-subset queries (pair ranking) made / refuted
        self.n_subset_checks = 0
        self.n_subset_refuted = 0
        self._round = 0
        # suspect scoring only reads candidate fanin cones, and probe
        # instrumentation added between rounds taps nets strictly
        # downstream of them — one index serves every round
        self._cones = ConeIndex(dut, stop_at_ffs=False)

    # ------------------------------------------------------------------

    def prune(
        self, candidates: set[str], matched_probes: list[str]
    ) -> set[str]:
        """Candidates provably unable to explain the observations."""
        if len(candidates) <= 1:
            return set()
        checked = self._select_suspects(candidates)
        if not checked:
            return set()
        relaxed = checked
        if self.n_errors > 1:
            relaxed = self._eligible_instances()
            if not relaxed or len(relaxed) > self.max_relax:
                return set()  # encoding too large; skip (sound)
        self._round += 1
        gb, enc, selector = self._build_encoding(relaxed, matched_probes)
        if self.n_errors > 1:
            add_at_most_k(gb.cnf, [selector[n] for n in relaxed],
                          self.n_errors)

        solver = Solver(
            gb.cnf, seed=derive_seed(self.seed, "sat.diagnose", self._round)
        )
        eliminated: set[str] = set()
        for name in checked:
            check_deadline("sat.prune")
            if name in eliminated:
                continue
            if self.n_errors == 1:
                assumptions = [selector[name]] + [
                    -selector[other] for other in checked if other != name
                ]
            else:
                # force c freed; the cardinality constraint rations the
                # remaining k-1 relaxations over everything else
                assumptions = [selector[name]]
            self.n_checks += 1
            if solver.solve(assumptions):
                continue
            self.n_unsat += 1
            reachable = self._reach_avoiding(name, matched_probes)
            subset = candidates - reachable - eliminated
            # a sound elimination can never drain the candidate set;
            # if it would, distrust this verdict and keep the suspects
            if subset and (candidates - eliminated - subset):
                eliminated |= subset
        return eliminated

    # ------------------------------------------------------------------

    def rank_pairs(
        self,
        candidates: set[str],
        matched_probes: list[str],
        limit: int = 6,
    ) -> tuple[list[tuple[str, str]], list[tuple[str, str]]]:
        """Judge candidate pairs as complete two-fault explanations.

        Frees exactly ``{a, b}`` per query (every other selector
        assumed false) against the full observation set.  Returns
        ``(feasible, refuted)``: feasible pairs ordered by joint cone
        coverage (the CEGIS correction tries them in this order),
        refuted pairs soundly excluded as joint diagnoses.
        """
        eligible = [
            name for name in self._suspect_order(candidates)
        ][:limit]
        if len(eligible) < 2:
            return [], []
        self._round += 1
        gb, enc, selector = self._build_encoding(eligible, matched_probes)
        solver = Solver(
            gb.cnf,
            seed=derive_seed(self.seed, "sat.diagnose.pairs", self._round),
        )
        feasible: list[tuple[str, str]] = []
        refuted: list[tuple[str, str]] = []
        for i in range(len(eligible)):
            check_deadline("sat.rank_pairs")
            for j in range(i + 1, len(eligible)):
                a, b = eligible[i], eligible[j]
                assumptions = [selector[a], selector[b]] + [
                    -selector[c] for c in eligible if c not in (a, b)
                ]
                self.n_subset_checks += 1
                if solver.solve(assumptions):
                    feasible.append((a, b))
                else:
                    self.n_subset_refuted += 1
                    refuted.append((a, b))
        return feasible, refuted

    # ------------------------------------------------------------------

    def _build_encoding(self, relaxed, matched_probes):
        """Golden unrolled to the failure cycle with ``relaxed`` freed."""
        gb = GateBuilder(CNF())
        p = self.pattern

        def const_input(port: str, frame: int) -> int:
            word = self.trace.stimulus[frame].get(port, 0)
            return gb.const((word >> p) & 1)

        selector = {name: gb.cnf.new_var() for name in relaxed}
        free_vars: dict[tuple[str, int], int] = {}

        def relax(inst, frame, in_lits, lit):
            sel = selector.get(inst.name)
            if sel is None:
                return lit
            free = free_vars.get((inst.name, frame))
            if free is None:
                free = gb.cnf.new_var()
                free_vars[(inst.name, frame)] = free
            return gb.lit_mux(sel, lit, free)

        enc = CircuitEncoder(self.golden, gb, inputs=const_input, relax=relax)
        self._assert_observations(gb, enc, matched_probes)
        return gb, enc, selector

    def _eligible_instances(self) -> list[str]:
        """Every golden instance that could host a fault, sorted."""
        out = []
        for inst in self.golden.instances():
            if inst.is_io or inst.is_ff or inst.output is None:
                continue
            out.append(inst.name)
        out.sort()
        return out

    def _suspect_order(self, candidates: set[str]) -> list[str]:
        """Candidates by descending candidate-cone coverage."""
        cones = self._cones
        golden = self.golden
        cand_mask = 0
        for name in candidates:
            if cones.has(name):
                cand_mask |= 1 << cones.bit(name)
        scored: list[tuple[int, str]] = []
        for name in sorted(candidates):
            if not golden.has_instance(name):
                continue
            inst = golden.instance(name)
            if inst.is_io or inst.is_ff or inst.output is None:
                continue
            if not cones.has(name):
                continue
            score = (cones.fanin(name) & cand_mask).bit_count()
            scored.append((-score, name))
        scored.sort()
        return [name for _, name in scored]

    def _select_suspects(self, candidates: set[str]) -> list[str]:
        """The suspects worth a solver call: largest candidate fanin
        first — the cuts whose UNSAT eliminates the most at once."""
        return self._suspect_order(candidates)[: self.max_checks]

    def _assert_observations(
        self, gb: GateBuilder, enc: CircuitEncoder, matched_probes: list[str]
    ) -> None:
        """Unit-clause everything the DUT run actually showed us."""
        p = self.pattern
        for t in range(self.cycle + 1):
            values = self.trace.nets[t]
            for port in sorted(self._out_net):
                net = self._out_net[port]
                bit = (values[net] >> p) & 1
                diff = self._diff.get((t, port), 0)
                if (diff >> p) & 1:
                    bit ^= 1  # the DUT disagreed here — observe *its* value
                lit = enc.output_lit(port, t)
                gb.clause([lit] if bit else [-lit])
            for net in sorted(set(matched_probes)):
                # a "match" probe verdict certifies the DUT carried the
                # golden value on this net at every cycle and pattern
                if not self.golden.has_net(net):
                    continue
                bit = (values.get(net, 0) >> p) & 1
                lit = enc.net_lit(net, t)
                gb.clause([lit] if bit else [-lit])

    def _reach_avoiding(self, removed: str, matched_probes: list[str]) -> set[str]:
        """DUT instances that reach an observation point without passing
        through ``removed`` — the suspects an UNSAT at ``removed``
        cannot clear."""
        dut = self.dut
        seeds = []
        for po in dut.primary_outputs():
            if port_name(po) not in self._out_net:
                continue  # instrumentation output, not observed here
            driver = po.inputs[0].driver
            if driver is not None and driver.name != removed:
                seeds.append(driver)
        for net in set(matched_probes):
            if not dut.has_net(net):
                continue
            driver = dut.net(net).driver
            if driver is not None and driver.name != removed:
                seeds.append(driver)
        seen: set[str] = set()
        work = list(seeds)
        while work:
            inst = work.pop()
            if inst.name in seen:
                continue
            seen.add(inst.name)
            for net in inst.inputs:
                driver = net.driver
                if driver is None or driver.name == removed:
                    continue
                if driver.name not in seen:
                    work.append(driver)
        return seen

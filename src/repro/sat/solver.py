"""A pure-python CDCL SAT solver.

The classic architecture (MiniSat lineage), sized for the CNFs the
debug flow produces — miters whose structural hashing has already
collapsed the easy 95 %, relaxation queries over a few thousand
variables, and 16-variable truth-table synthesis:

* **two-watched-literal propagation** — each clause watches two
  literals; only clauses watching the falsified literal are visited;
* **1-UIP conflict analysis** — resolve the conflict clause backwards
  along the trail to the first unique implication point, learn the
  asserting clause, backjump non-chronologically;
* **VSIDS** — per-variable activity bumped during analysis and decayed
  geometrically; decisions pick the most active unassigned variable
  (ties break on a unique per-variable rank, keeping runs
  deterministic).  The pick comes from a lazy-deletion order heap of
  ``(-activity, rank, var)`` entries rather than a scan: a bump leaves
  the variable's old entry behind, stale, and the variable is re-queued
  under its new key when backtracking unassigns it; the pick pops
  entries until it meets one that is current and unassigned.  Ranks
  are unique and every unassigned variable always has a current entry,
  so the heap's pick is exactly the scan's minimum and the decision
  sequence is unchanged.  New variables (with a seed, a rank
  reshuffle) and an activity rescale rebuild the heap, and so does a
  heap grown past ``_HEAP_SLACK`` entries per variable;
* **phase saving** — a backtracked variable remembers its last
  polarity and is re-decided there;
* **Luby restarts** — conflict budgets follow the Luby sequence times
  a base interval, the standard universal restart policy;
* **incremental solving under assumptions** — ``solve(assumptions)``
  forces the given literals as the first decisions; learned clauses
  persist across calls, and clauses appended to the attached
  :class:`~repro.sat.cnf.CNF` between calls are synced in, so a caller
  can probe many hypotheses against one growing formula.

Determinism: given the same CNF, the same assumption sequence and the
same ``seed``, every solve makes the identical decision sequence.  The
seed only perturbs the activity tie-break ranks: each time the variable
count grows, a seeded shuffle reorders every rank; ``seed=0`` keeps
plain index order.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from repro.obs.metrics import METRICS
from repro.obs.trace import maybe_span
from repro.resilience.budget import check_deadline
from repro.rng import make_rng
from repro.sat.cnf import CNF, SatError

_UNASSIGNED = -1
_VAR_DECAY = 0.95
_RESCALE = 1e100
#: the order heap is rebuilt from the unassigned variables once it holds
#: more than this many entries per variable (stale and duplicate entries
#: pile up between rebuilds)
_HEAP_SLACK = 4


@dataclass
class SolverStats:
    """Counters accumulated across every solve on this instance."""

    solves: int = 0
    decisions: int = 0
    conflicts: int = 0
    propagations: int = 0
    learned: int = 0
    restarts: int = 0

    def snapshot(self) -> dict:
        return {
            "solves": self.solves,
            "decisions": self.decisions,
            "conflicts": self.conflicts,
            "propagations": self.propagations,
            "learned": self.learned,
            "restarts": self.restarts,
        }


def _luby(i: int) -> int:
    """The i-th (0-based) Luby number: 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ..."""
    size, seq = 1, 0
    while size < i + 1:
        seq += 1
        size = 2 * size + 1
    while size - 1 != i:
        size = (size - 1) // 2
        seq -= 1
        i %= size
    return 1 << seq


class Solver:
    """CDCL over a (possibly still growing) :class:`CNF`.

    Literals at the API boundary are signed DIMACS ints; internally a
    literal ``l`` is the code ``2*|l| + (l < 0)``.  Values are kept per
    literal code: ``_values[c]`` is 1, 0 or ``_UNASSIGNED``, so a
    variable's value is its positive code's, ``_values[2*var]``.
    """

    def __init__(self, cnf: CNF | None = None, seed: int = 0,
                 restart_base: int = 64) -> None:
        self.cnf = cnf if cnf is not None else CNF()
        self.seed = seed
        self.restart_base = restart_base
        self.stats = SolverStats()
        self.ok = True  # False once the formula is unsat at root level

        self._n_vars = 0
        self._values: list[int] = [_UNASSIGNED, _UNASSIGNED]
        self._levels: list[int] = [0]
        self._reasons: list[int] = [-1]
        self._activity: list[float] = [0.0]
        self._phase: list[int] = [0]
        self._rank: list[int] = [0]  # seeded tie-break order
        #: the VSIDS order heap of (-activity, rank, var) entries
        self._heap: list[tuple[float, int, int]] = []
        #: 1 while the heap holds an entry with the variable's current key
        self._queued = bytearray(1)
        self._watches: list[list[int]] = [[], []]
        #: clause literal codes; lits[0:2] are the watched pair
        self._clauses: list[list[int]] = []
        self._trail: list[int] = []
        self._trail_lim: list[int] = []
        self._prop_head = 0
        self._var_inc = 1.0
        self._synced = 0
        self._model: list[int] | None = None
        self._sync()

    # -- public surface -------------------------------------------------

    @property
    def n_vars(self) -> int:
        return self._n_vars

    def add_clause(self, lits) -> None:
        """Add a clause directly (bypassing the CNF's list).

        Variables grow one literal at a time, in clause order; with a
        seed, each growth step reshuffles the tie-break ranks.
        """
        clause = tuple(lits)
        self._backtrack(0)
        for lit in clause:
            self._ensure_vars(abs(lit))
        self._load((clause,))

    def solve(self, assumptions=()) -> bool:
        """True iff satisfiable under ``assumptions`` (signed literals).

        On True, :meth:`value` reads the model.  On False with empty
        assumptions the formula itself is unsat and :attr:`ok` goes
        False; under assumptions, only this hypothesis is refuted.

        Each call is one ``sat_solve`` trace span and one fold of the
        per-solve :class:`SolverStats` delta into the process metrics
        (never per-propagation — search loops stay untouched).
        """
        assumptions = tuple(assumptions)
        before = (self.stats.conflicts, self.stats.propagations,
                  self.stats.decisions, self.stats.learned,
                  self.stats.restarts)
        with maybe_span("sat_solve", category="sat",
                        n_vars=self._n_vars,
                        n_assumptions=len(assumptions)) as span:
            sat = self._solve(assumptions)
            conflicts = self.stats.conflicts - before[0]
            propagations = self.stats.propagations - before[1]
            decisions = self.stats.decisions - before[2]
            learned = self.stats.learned - before[3]
            restarts = self.stats.restarts - before[4]
            METRICS.inc("repro_sat_solves_total")
            if conflicts:
                METRICS.inc("repro_sat_conflicts_total", conflicts)
            if propagations:
                METRICS.inc("repro_sat_propagations_total", propagations)
            if decisions:
                METRICS.inc("repro_sat_decisions_total", decisions)
            if learned:
                METRICS.inc("repro_sat_learned_total", learned)
            if restarts:
                METRICS.inc("repro_sat_restarts_total", restarts)
            if span is not None:
                span.attrs.update(
                    sat=sat, conflicts=conflicts,
                    propagations=propagations, learned=learned,
                )
        return sat

    def _solve(self, assumptions=()) -> bool:
        self._sync()
        self._model = None
        stats = self.stats
        stats.solves += 1
        if not self.ok:
            return False
        assumptions = [self._code(lit) for lit in assumptions]
        self._backtrack(0)
        if self._propagate() >= 0:
            self.ok = False
            return False
        values = self._values
        trail = self._trail
        trail_lim = self._trail_lim
        restart_no = 0
        budget = self.restart_base * _luby(restart_no)
        conflicts_here = 0
        ticks = 0
        while True:
            ticks += 1
            if not ticks & 1023:
                check_deadline("sat.solve")
            conflict = self._propagate()
            if conflict >= 0:
                stats.conflicts += 1
                conflicts_here += 1
                if not trail_lim:
                    self.ok = False
                    return False
                learnt, bt_level = self._analyze(conflict)
                self._backtrack(bt_level)
                if len(learnt) == 1:
                    self._enqueue(learnt[0], -1)
                else:
                    ci = self._attach_learnt(learnt)
                    self._enqueue(learnt[0], ci)
                continue
            if conflicts_here >= budget:
                stats.restarts += 1
                restart_no += 1
                budget = self.restart_base * _luby(restart_no)
                conflicts_here = 0
                self._backtrack(0)
                continue
            # place pending assumptions as the next decisions
            placed = False
            failed = False
            while len(trail_lim) < len(assumptions):
                code = assumptions[len(trail_lim)]
                value = values[code]
                if value == 1:
                    trail_lim.append(len(trail))
                    continue
                if value == 0:
                    failed = True
                    break
                trail_lim.append(len(trail))
                self._enqueue(code, -1)
                placed = True
                break
            if failed:
                self._backtrack(0)
                return False
            if placed:
                continue
            var = self._pick_var()
            if var == 0:
                self._model = values[::2]
                self._backtrack(0)
                return True
            stats.decisions += 1
            trail_lim.append(len(trail))
            self._enqueue(2 * var + (0 if self._phase[var] else 1), -1)

    def value(self, var: int) -> int:
        """Model value of ``var`` after a satisfiable solve (0/1).

        Variables the search never touched are don't-cares, reported 0.
        """
        if self._model is None:
            raise SatError("no model available; last solve was not SAT")
        if var >= len(self._model):
            return 0
        v = self._model[var]
        return 0 if v == _UNASSIGNED else v

    def lit_true(self, lit: int) -> bool:
        v = self.value(abs(lit))
        return bool(v) if lit > 0 else not v

    # -- setup ----------------------------------------------------------

    def _sync(self) -> None:
        """Pull variables and clauses the CNF grew since the last solve.

        Every CNF clause ranges over ``1..cnf.n_vars``, so one growth
        step covers the whole batch.
        """
        cnf = self.cnf
        self._ensure_vars(cnf.n_vars)
        clauses = cnf.clauses
        if self._synced < len(clauses):
            self._backtrack(0)
            self._load(clauses[self._synced:])
            self._synced = len(clauses)

    def _ensure_vars(self, n: int) -> None:
        if n <= self._n_vars:
            return
        for var in range(self._n_vars + 1, n + 1):
            self._values.append(_UNASSIGNED)
            self._values.append(_UNASSIGNED)
            self._levels.append(0)
            self._reasons.append(-1)
            self._activity.append(0.0)
            self._phase.append(0)
            self._rank.append(var)
            self._watches.append([])
            self._watches.append([])
        self._n_vars = n
        if self.seed:
            ranks = self._rank[1:]
            make_rng(self.seed, "sat.order").shuffle(ranks)
            self._rank[1:] = ranks
        self._rebuild_heap()

    def _load(self, clauses) -> None:
        """Simplify clauses over known variables against the root
        assignments, then attach them.

        The solver sits at level 0, so every assigned literal is
        assigned at the root.
        """
        values = self._values
        watches = self._watches
        attached = self._clauses
        for clause in clauses:
            codes: list[int] = []
            for lit in clause:
                if lit > 0:
                    code = 2 * lit
                elif lit < 0:
                    code = 1 - 2 * lit
                else:
                    raise SatError("0 is not a literal")
                if code in codes:
                    continue
                if code ^ 1 in codes:
                    break  # tautology
                value = values[code]
                if value == 1:
                    break  # satisfied at root
                if value == 0:
                    continue  # falsified at root: drop the literal
                codes.append(code)
            else:
                if len(codes) > 1:
                    ci = len(attached)
                    attached.append(codes)
                    watches[codes[0]].append(ci)
                    watches[codes[1]].append(ci)
                elif codes:
                    self._enqueue(codes[0], -1)
                else:
                    self.ok = False

    def _attach_learnt(self, codes: list[int]) -> int:
        ci = len(self._clauses)
        self._clauses.append(codes)
        self._watches[codes[0]].append(ci)
        self._watches[codes[1]].append(ci)
        self.stats.learned += 1
        return ci

    # -- kernel ---------------------------------------------------------

    @staticmethod
    def _code(lit: int) -> int:
        if lit == 0:
            raise SatError("0 is not a literal")
        return 2 * lit if lit > 0 else -2 * lit + 1

    def _enqueue(self, code: int, reason: int) -> None:
        var = code >> 1
        self._values[code] = 1
        self._values[code ^ 1] = 0
        self._levels[var] = len(self._trail_lim)
        self._reasons[var] = reason
        self._trail.append(code)

    def _propagate(self) -> int:
        """Unit propagation; returns a conflicting clause index or -1."""
        trail = self._trail
        head = self._prop_head
        if head >= len(trail):
            return -1
        values = self._values
        levels = self._levels
        reasons = self._reasons
        watches = self._watches
        clauses = self._clauses
        level = len(self._trail_lim)
        start = head
        conflict = -1
        while head < len(trail):
            false_code = trail[head] ^ 1
            head += 1
            wlist = watches[false_code]
            n = len(wlist)
            j = 0
            i = 0
            while i < n:
                ci = wlist[i]
                i += 1
                lits = clauses[ci]
                first = lits[0]
                if first == false_code:
                    first = lits[1]
                    lits[0] = first
                    lits[1] = false_code
                value = values[first]
                if value == 1:  # watch 0 is true
                    wlist[j] = ci
                    j += 1
                    continue
                for k in range(2, len(lits)):
                    code = lits[k]
                    if values[code]:  # not false
                        lits[1] = code
                        lits[k] = false_code
                        watches[code].append(ci)
                        break
                else:
                    wlist[j] = ci
                    j += 1
                    if value == 0:  # watch 0 is false
                        conflict = ci
                        break
                    values[first] = 1
                    values[first ^ 1] = 0
                    var = first >> 1
                    levels[var] = level
                    reasons[var] = ci
                    trail.append(first)
            if conflict >= 0:
                del wlist[j:i]
                break
            del wlist[j:]
        self._prop_head = head
        self.stats.propagations += head - start
        return conflict

    def _bump(self, var: int) -> None:
        """Raise ``var``'s activity.

        Only assigned variables are bumped (they sit in the conflict's
        implication graph), so the heap needs no new entry here: the
        old one turns stale and :meth:`_backtrack` re-queues the
        variable under its new key.
        """
        activity = self._activity
        activity[var] += self._var_inc
        self._queued[var] = 0
        if activity[var] > _RESCALE:
            inv = 1.0 / _RESCALE
            for v in range(1, self._n_vars + 1):
                activity[v] *= inv
            self._var_inc *= inv
            self._rebuild_heap()

    def _analyze(self, conflict: int) -> tuple[list[int], int]:
        """First-UIP learning; returns (asserting clause, backjump level)."""
        levels = self._levels
        trail = self._trail
        clauses = self._clauses
        bump = self._bump
        current = len(self._trail_lim)
        seen = bytearray(self._n_vars + 1)
        learnt: list[int] = []
        counter = 0
        for code in clauses[conflict]:
            var = code >> 1
            if not seen[var] and levels[var] > 0:
                seen[var] = 1
                bump(var)
                if levels[var] == current:
                    counter += 1
                else:
                    learnt.append(code)
        idx = len(trail) - 1
        uip = 0
        while True:
            while not seen[trail[idx] >> 1]:
                idx -= 1
            code = trail[idx]
            idx -= 1
            var = code >> 1
            seen[var] = 0
            counter -= 1
            if counter == 0:
                uip = code ^ 1
                break
            for rcode in clauses[self._reasons[var]]:
                rvar = rcode >> 1
                if rvar == var or seen[rvar] or levels[rvar] == 0:
                    continue
                seen[rvar] = 1
                bump(rvar)
                if levels[rvar] == current:
                    counter += 1
                else:
                    learnt.append(rcode)
        learnt.insert(0, uip)
        bt_level = 0
        if len(learnt) > 1:
            max_idx = 1
            for i in range(1, len(learnt)):
                level = levels[learnt[i] >> 1]
                if level > bt_level:
                    bt_level, max_idx = level, i
            learnt[1], learnt[max_idx] = learnt[max_idx], learnt[1]
        self._var_inc /= _VAR_DECAY
        return learnt, bt_level

    def _backtrack(self, level: int) -> None:
        """Undo every assignment above ``level``, saving phases and
        re-queueing each variable whose current key left the heap."""
        trail_lim = self._trail_lim
        if len(trail_lim) <= level:
            return
        trail = self._trail
        mark = trail_lim[level]
        values = self._values
        phase = self._phase
        queued = self._queued
        activity = self._activity
        rank = self._rank
        heap = self._heap
        push = heapq.heappush
        for idx in range(len(trail) - 1, mark - 1, -1):
            code = trail[idx]
            values[code] = values[code ^ 1] = _UNASSIGNED
            var = code >> 1
            phase[var] = (code & 1) ^ 1
            if not queued[var]:
                queued[var] = 1
                push(heap, (-activity[var], rank[var], var))
        del trail[mark:]
        del trail_lim[level:]
        self._prop_head = len(trail)
        if len(heap) > _HEAP_SLACK * self._n_vars:
            self._rebuild_heap()

    def _rebuild_heap(self) -> None:
        """One current entry per unassigned variable, heapified."""
        activity = self._activity
        rank = self._rank
        values = self._values
        queued = bytearray(self._n_vars + 1)
        heap = []
        for var in range(1, self._n_vars + 1):
            if values[2 * var] == _UNASSIGNED:
                queued[var] = 1
                heap.append((-activity[var], rank[var], var))
        heapq.heapify(heap)
        self._heap = heap
        self._queued = queued

    def _pick_var(self) -> int:
        """The unassigned variable with the highest activity (lowest
        rank on ties), or 0 when every variable is assigned.

        Pops stale entries (a bump since the push) and entries of
        assigned variables; every unassigned variable keeps a current
        entry, so the first current, unassigned entry is the minimum.
        """
        heap = self._heap
        activity = self._activity
        values = self._values
        queued = self._queued
        pop = heapq.heappop
        while heap:
            neg_activity, _, var = pop(heap)
            if -neg_activity != activity[var]:
                continue  # stale
            queued[var] = 0
            if values[2 * var] == _UNASSIGNED:
                return var
        return 0

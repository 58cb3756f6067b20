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
  (ties break on the lowest index, keeping runs deterministic);
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
seed only perturbs the initial variable order (a seeded shuffle of the
activity tie-break ranks); ``seed=0`` keeps plain index order.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.obs.metrics import METRICS
from repro.obs.trace import maybe_span
from repro.resilience.budget import check_deadline
from repro.rng import make_rng
from repro.sat.cnf import CNF, SatError

_UNASSIGNED = -1
_VAR_DECAY = 0.95
_RESCALE = 1e100


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


@dataclass
class _Clause:
    lits: list[int]  # internal codes; lits[0:2] are the watched pair
    learnt: bool = False


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
    literal ``l`` is the code ``2*|l| + (l < 0)``.
    """

    def __init__(self, cnf: CNF | None = None, seed: int = 0,
                 restart_base: int = 64) -> None:
        self.cnf = cnf if cnf is not None else CNF()
        self.seed = seed
        self.restart_base = restart_base
        self.stats = SolverStats()
        self.ok = True  # False once the formula is unsat at root level

        self._n_vars = 0
        self._assigns: list[int] = [_UNASSIGNED]
        self._levels: list[int] = [0]
        self._reasons: list[int] = [-1]
        self._activity: list[float] = [0.0]
        self._phase: list[int] = [0]
        self._rank: list[int] = [0]  # seeded tie-break order
        self._watches: list[list[int]] = [[], []]
        self._clauses: list[_Clause] = []
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
        """Add a clause directly (bypassing the CNF's list)."""
        self._backtrack(0)
        self._attach_external(tuple(lits))

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
        self.stats.solves += 1
        if not self.ok:
            return False
        assumptions = [self._code(lit) for lit in assumptions]
        self._backtrack(0)
        if self._propagate() >= 0:
            self.ok = False
            return False
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
                self.stats.conflicts += 1
                conflicts_here += 1
                if not self._trail_lim:
                    self.ok = False
                    return False
                learnt, bt_level = self._analyze(conflict)
                self._backtrack(bt_level)
                if len(learnt) == 1:
                    self._enqueue(learnt[0], -1)
                else:
                    ci = self._attach_internal(learnt, learnt=True)
                    self._enqueue(learnt[0], ci)
                continue
            if conflicts_here >= budget:
                self.stats.restarts += 1
                restart_no += 1
                budget = self.restart_base * _luby(restart_no)
                conflicts_here = 0
                self._backtrack(0)
                continue
            # place pending assumptions as the next decisions
            placed = False
            failed = False
            while len(self._trail_lim) < len(assumptions):
                code = assumptions[len(self._trail_lim)]
                value = self._value_code(code)
                if value == 1:
                    self._trail_lim.append(len(self._trail))
                    continue
                if value == 0:
                    failed = True
                    break
                self._trail_lim.append(len(self._trail))
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
                self._model = list(self._assigns)
                self._backtrack(0)
                return True
            self.stats.decisions += 1
            self._trail_lim.append(len(self._trail))
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
        """Pull variables and clauses the CNF grew since the last solve."""
        self._ensure_vars(self.cnf.n_vars)
        if self._synced < len(self.cnf.clauses):
            self._backtrack(0)
            while self._synced < len(self.cnf.clauses):
                self._attach_external(self.cnf.clauses[self._synced])
                self._synced += 1

    def _ensure_vars(self, n: int) -> None:
        if n <= self._n_vars:
            return
        rng = make_rng(self.seed, "sat.order") if self.seed else None
        for var in range(self._n_vars + 1, n + 1):
            self._assigns.append(_UNASSIGNED)
            self._levels.append(0)
            self._reasons.append(-1)
            self._activity.append(0.0)
            self._phase.append(0)
            self._rank.append(var)
            self._watches.append([])
            self._watches.append([])
        if rng is not None:
            ranks = self._rank[1:]
            rng.shuffle(ranks)
            self._rank[1:] = ranks
        self._n_vars = n

    def _attach_external(self, clause: tuple[int, ...]) -> None:
        """Simplify a user clause against root assignments, then attach."""
        for lit in clause:
            self._ensure_vars(abs(lit))
        codes: list[int] = []
        seen: set[int] = set()
        for lit in clause:
            code = self._code(lit)
            if code in seen:
                continue
            if code ^ 1 in seen:
                return  # tautology
            value = self._value_code(code)
            if value == 1 and self._levels[code >> 1] == 0:
                return  # satisfied at root
            if value == 0 and self._levels[code >> 1] == 0:
                continue  # falsified at root: drop the literal
            seen.add(code)
            codes.append(code)
        if not codes:
            self.ok = False
            return
        if len(codes) == 1:
            value = self._value_code(codes[0])
            if value == 0:
                self.ok = False
            elif value == _UNASSIGNED:
                self._enqueue(codes[0], -1)
            return
        self._attach_internal(codes, learnt=False)

    def _attach_internal(self, codes: list[int], learnt: bool) -> int:
        ci = len(self._clauses)
        self._clauses.append(_Clause(list(codes), learnt))
        self._watches[codes[0]].append(ci)
        self._watches[codes[1]].append(ci)
        if learnt:
            self.stats.learned += 1
        return ci

    # -- kernel ---------------------------------------------------------

    @staticmethod
    def _code(lit: int) -> int:
        if lit == 0:
            raise SatError("0 is not a literal")
        return 2 * lit if lit > 0 else -2 * lit + 1

    def _value_code(self, code: int) -> int:
        a = self._assigns[code >> 1]
        if a == _UNASSIGNED:
            return _UNASSIGNED
        return a ^ (code & 1)

    def _enqueue(self, code: int, reason: int) -> None:
        var = code >> 1
        self._assigns[var] = 0 if code & 1 else 1
        self._levels[var] = len(self._trail_lim)
        self._reasons[var] = reason
        self._trail.append(code)

    def _propagate(self) -> int:
        """Unit propagation; returns a conflicting clause index or -1."""
        while self._prop_head < len(self._trail):
            false_code = self._trail[self._prop_head] ^ 1
            self._prop_head += 1
            self.stats.propagations += 1
            wlist = self._watches[false_code]
            j = 0
            i = 0
            while i < len(wlist):
                ci = wlist[i]
                lits = self._clauses[ci].lits
                if lits[0] == false_code:
                    lits[0], lits[1] = lits[1], lits[0]
                first = lits[0]
                if self._value_code(first) == 1:
                    wlist[j] = ci
                    j += 1
                    i += 1
                    continue
                found = False
                for k in range(2, len(lits)):
                    if self._value_code(lits[k]) != 0:
                        lits[1], lits[k] = lits[k], lits[1]
                        self._watches[lits[1]].append(ci)
                        found = True
                        break
                if found:
                    i += 1
                    continue
                wlist[j] = ci
                j += 1
                if self._value_code(first) == 0:
                    i += 1
                    while i < len(wlist):
                        wlist[j] = wlist[i]
                        j += 1
                        i += 1
                    del wlist[j:]
                    return ci
                self._enqueue(first, ci)
                i += 1
            del wlist[j:]
        return -1

    def _bump(self, var: int) -> None:
        self._activity[var] += self._var_inc
        if self._activity[var] > _RESCALE:
            inv = 1.0 / _RESCALE
            for v in range(1, self._n_vars + 1):
                self._activity[v] *= inv
            self._var_inc *= inv

    def _analyze(self, conflict: int) -> tuple[list[int], int]:
        """First-UIP learning; returns (asserting clause, backjump level)."""
        current = len(self._trail_lim)
        seen = bytearray(self._n_vars + 1)
        learnt: list[int] = []
        counter = 0
        for code in self._clauses[conflict].lits:
            var = code >> 1
            if not seen[var] and self._levels[var] > 0:
                seen[var] = 1
                self._bump(var)
                if self._levels[var] == current:
                    counter += 1
                else:
                    learnt.append(code)
        idx = len(self._trail) - 1
        uip = 0
        while True:
            while not seen[self._trail[idx] >> 1]:
                idx -= 1
            code = self._trail[idx]
            idx -= 1
            var = code >> 1
            seen[var] = 0
            counter -= 1
            if counter == 0:
                uip = code ^ 1
                break
            reason = self._reasons[var]
            for rcode in self._clauses[reason].lits:
                rvar = rcode >> 1
                if rvar == var or seen[rvar] or self._levels[rvar] == 0:
                    continue
                seen[rvar] = 1
                self._bump(rvar)
                if self._levels[rvar] == current:
                    counter += 1
                else:
                    learnt.append(rcode)
        learnt.insert(0, uip)
        bt_level = 0
        if len(learnt) > 1:
            max_idx = 1
            for i in range(1, len(learnt)):
                level = self._levels[learnt[i] >> 1]
                if level > bt_level:
                    bt_level, max_idx = level, i
            learnt[1], learnt[max_idx] = learnt[max_idx], learnt[1]
        self._var_inc /= _VAR_DECAY
        return learnt, bt_level

    def _backtrack(self, level: int) -> None:
        if len(self._trail_lim) <= level:
            return
        mark = self._trail_lim[level]
        for idx in range(len(self._trail) - 1, mark - 1, -1):
            code = self._trail[idx]
            var = code >> 1
            self._phase[var] = self._assigns[var]
            self._assigns[var] = _UNASSIGNED
            self._reasons[var] = -1
        del self._trail[mark:]
        del self._trail_lim[level:]
        self._prop_head = len(self._trail)

    def _pick_var(self) -> int:
        best, best_key = 0, None
        activity = self._activity
        assigns = self._assigns
        rank = self._rank
        for var in range(1, self._n_vars + 1):
            if assigns[var] != _UNASSIGNED:
                continue
            key = (-activity[var], rank[var])
            if best_key is None or key < best_key:
                best, best_key = var, key
        return best

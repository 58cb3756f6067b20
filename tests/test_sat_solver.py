"""The CDCL solver: correctness against brute force, incrementality."""

import hashlib
import itertools
import random

import pytest

from repro.sat.cnf import CNF, SatError
from repro.sat import solver as solver_module
from repro.sat.solver import _UNASSIGNED, Solver, _luby


def brute_force_sat(n_vars, clauses):
    for bits in itertools.product([0, 1], repeat=n_vars):
        if all(
            any((lit > 0) == bool(bits[abs(lit) - 1]) for lit in clause)
            for clause in clauses
        ):
            return True
    return False


def make_random_cnf(n_vars, n_clauses, rng):
    cnf = CNF()
    clauses = []
    for _ in range(n_vars):
        cnf.new_var()
    for _ in range(n_clauses):
        width = rng.randint(1, min(3, n_vars))
        chosen = rng.sample(range(1, n_vars + 1), width)
        clause = [v if rng.random() < 0.5 else -v for v in chosen]
        clauses.append(clause)
        cnf.add_clause(clause)
    return cnf, clauses


def random_3sat(n_vars, ratio, rng):
    cnf = CNF()
    for _ in range(n_vars):
        cnf.new_var()
    for _ in range(round(ratio * n_vars)):
        chosen = rng.sample(range(1, n_vars + 1), 3)
        cnf.add_clause([v if rng.random() < 0.5 else -v for v in chosen])
    return cnf


def pigeonhole(pigeons, holes):
    cnf = CNF()
    var = {
        (p, h): cnf.new_var() for p in range(pigeons) for h in range(holes)
    }
    for p in range(pigeons):
        cnf.add_clause([var[p, h] for h in range(holes)])
    for h in range(holes):
        for p1 in range(pigeons):
            for p2 in range(p1 + 1, pigeons):
                cnf.add_clause([-var[p1, h], -var[p2, h]])
    return cnf



class TestSolverCorrectness:
    def test_matches_brute_force_on_random_instances(self):
        rng = random.Random(11)
        for trial in range(80):
            n = rng.randint(2, 10)
            cnf, clauses = make_random_cnf(n, rng.randint(1, 4 * n), rng)
            solver = Solver(cnf, seed=trial % 5)
            got = solver.solve()
            assert got == brute_force_sat(n, clauses)
            if got:
                for clause in clauses:
                    assert any(solver.lit_true(lit) for lit in clause)

    def test_empty_formula_is_sat(self):
        assert Solver(CNF()).solve() is True

    def test_empty_clause_is_unsat(self):
        cnf = CNF()
        cnf.new_var()
        cnf.clauses.append(())
        solver = Solver(cnf)
        assert solver.solve() is False
        assert solver.ok is False

    def test_unit_propagation_chain(self):
        cnf = CNF()
        a, b, c, d = (cnf.new_var() for _ in range(4))
        cnf.add_clause([a])
        cnf.add_clause([-a, b])
        cnf.add_clause([-b, c])
        cnf.add_clause([-c, d])
        solver = Solver(cnf)
        assert solver.solve()
        assert all(solver.value(v) == 1 for v in (a, b, c, d))
        assert solver.stats.decisions == 0

    def test_pigeonhole_unsat(self):
        # 4 pigeons in 3 holes: exercises learning and backjumping
        solver = Solver(pigeonhole(4, 3), seed=1)
        assert solver.solve() is False
        assert solver.stats.conflicts > 0
        assert solver.stats.learned > 0

    def test_luby_sequence(self):
        assert [_luby(i) for i in range(15)] == [
            1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8,
        ]

    def test_rejects_zero_literal(self):
        cnf = CNF()
        cnf.new_var()
        solver = Solver(cnf)
        with pytest.raises(SatError):
            solver.solve([0])

    def test_model_unavailable_after_unsat(self):
        cnf = CNF()
        a = cnf.new_var()
        cnf.add_clause([a])
        cnf.add_clause([-a])
        solver = Solver(cnf)
        assert solver.solve() is False
        with pytest.raises(SatError):
            solver.value(a)


class TestAssumptionsAndIncrementality:
    def test_assumptions_branch_the_same_formula(self):
        cnf = CNF()
        a, b, c = (cnf.new_var() for _ in range(3))
        cnf.add_clause([a, b])
        cnf.add_clause([-a, c])
        solver = Solver(cnf)
        assert solver.solve([a]) and solver.lit_true(c)
        assert solver.solve([-a]) and solver.lit_true(b)
        assert solver.solve([a, -c]) is False
        # a refuted assumption set must not poison the instance
        assert solver.ok is True
        assert solver.solve([a]) is True

    def test_conflicting_assumptions(self):
        cnf = CNF()
        a = cnf.new_var()
        solver = Solver(cnf)
        assert solver.solve([a, -a]) is False
        assert solver.ok is True

    def test_clauses_added_between_solves(self):
        cnf = CNF()
        a, b = cnf.new_var(), cnf.new_var()
        cnf.add_clause([a, b])
        solver = Solver(cnf)
        assert solver.solve([-a]) and solver.lit_true(b)
        cnf.add_clause([-b])  # grows the attached CNF
        assert solver.solve([-a]) is False
        assert solver.solve([a]) is True
        cnf.add_clause([-a])
        assert solver.solve() is False
        assert solver.ok is False

    def test_variables_added_between_solves(self):
        cnf = CNF()
        a = cnf.new_var()
        cnf.add_clause([a])
        solver = Solver(cnf)
        assert solver.solve()
        b = cnf.new_var()
        cnf.add_clause([-a, b])
        assert solver.solve()
        assert solver.value(b) == 1


class TestDeterminism:
    def _run(self, seed):
        rng = random.Random(3)
        cnf, _ = make_random_cnf(25, 95, rng)
        solver = Solver(cnf, seed=seed)
        sat = solver.solve()
        model = (
            [solver.value(v) for v in range(1, 26)] if sat else None
        )
        return sat, model, solver.stats.snapshot()

    def test_same_seed_same_run(self):
        assert self._run(7) == self._run(7)
        assert self._run(0) == self._run(0)

    def test_verdict_independent_of_seed(self):
        assert self._run(1)[0] == self._run(2)[0] == self._run(0)[0]


def _trace_solve(solver, digest, assumptions=()):
    """Solve once and fold (result, stats, full model) into ``digest``."""
    sat = solver.solve(assumptions)
    model = (
        tuple(solver.value(v) for v in range(1, solver.n_vars + 1))
        if sat else None
    )
    digest.update(repr((sat, solver.stats.snapshot(), model)).encode())


def _incremental_trace(digest):
    """A seeded solver whose formula grows between solves: CNF growth
    (synced in) and public ``add_clause`` growth (one variable at a time,
    each growth step reshuffling the seeded ranks), under assumptions."""
    rng = random.Random(99)
    cnf = random_3sat(60, 3.9, rng)
    synced = Solver(cnf, seed=3)
    direct = Solver(seed=5)
    for clause in cnf.clauses:
        direct.add_clause(clause)
    for _ in range(10):
        assumptions = [
            v if rng.random() < 0.5 else -v
            for v in rng.sample(range(1, cnf.n_vars + 1), 3)
        ]
        _trace_solve(synced, digest, assumptions)
        _trace_solve(direct, digest, assumptions)
        fresh = [cnf.new_var() for _ in range(4)]
        grown = []
        for _ in range(6):
            old = rng.sample(range(1, fresh[0]), 2)
            clause = [rng.choice(fresh)] + [
                v if rng.random() < 0.5 else -v for v in old
            ]
            rng.shuffle(clause)
            cnf.add_clause(clause)
            grown.append(clause)
        for clause in grown:
            direct.add_clause(clause)
    _trace_solve(synced, digest)
    _trace_solve(direct, digest)


def test_search_trace_pinned():
    """Every solve's result, stats and model are pinned: a kernel change
    must make exactly the same decisions, conflicts and learned clauses."""
    digest = hashlib.sha256()
    for seed in range(6):
        solver = Solver(random_3sat(80, 4.26, random.Random(seed)),
                        seed=seed % 3)
        _trace_solve(solver, digest)
    _trace_solve(Solver(pigeonhole(7, 6), seed=1), digest)
    _incremental_trace(digest)
    assert digest.hexdigest() == (
        "86c0a1e47284f73b3f33d4de321cce95b7843435ba6aa0733f43134a5411672b"
    )


def reference_pick(solver):
    """The scan the order heap replaced: the most active unassigned
    variable, ties broken on the lowest rank."""
    best, best_key = 0, None
    for var in range(1, solver.n_vars + 1):
        if solver._values[2 * var] != _UNASSIGNED:
            continue
        key = (-solver._activity[var], solver._rank[var])
        if best_key is None or key < best_key:
            best, best_key = var, key
    return best


def check_every_pick(solver):
    """Wrap ``solver``'s heap pick: each decision must equal the
    reference scan, and the heap must stay under its compaction bound.
    Returns the list the checked picks are appended to."""
    picks = []
    heap_pick = solver._pick_var

    def checked():
        expected = reference_pick(solver)
        got = heap_pick()
        assert got == expected
        assert len(solver._heap) <= solver_module._HEAP_SLACK * solver.n_vars
        picks.append(got)
        return got

    solver._pick_var = checked
    return picks


class TestOrderHeap:
    def test_heap_pick_matches_scan_at_every_decision(self, monkeypatch):
        # a low rescale threshold makes activity rescales (and the heap
        # rebuilds they force) happen inside these small searches
        monkeypatch.setattr(solver_module, "_RESCALE", 50.0)
        rng = random.Random(17)
        n_picks = 0
        rescales = []
        for trial in range(12):
            cnf = random_3sat(40, 4.26, rng)
            solver = Solver(cnf, seed=trial % 4)
            picks = check_every_pick(solver)
            bump = solver._bump

            def counted(var, solver=solver, bump=bump):
                before = solver._var_inc
                bump(var)
                if solver._var_inc < before:
                    rescales.append(var)

            solver._bump = counted
            for _ in range(3):
                assumptions = [
                    v if rng.random() < 0.5 else -v
                    for v in rng.sample(range(1, cnf.n_vars + 1), 2)
                ]
                solver.solve(assumptions)
                new = cnf.new_var()
                cnf.add_clause([new, -rng.randint(1, new - 1)])
            solver.solve()
            n_picks += len(picks)
        assert n_picks > 500
        assert len(rescales) >= 5

    def test_heap_stays_bounded_through_pigeonhole(self):
        solver = Solver(pigeonhole(7, 6), seed=1)
        picks = check_every_pick(solver)
        rebuilds = []
        rebuild = solver._rebuild_heap

        def counted():
            rebuilds.append(len(solver._heap))
            rebuild()

        solver._rebuild_heap = counted
        assert solver.solve() is False
        assert solver.stats.conflicts > 1000
        assert picks
        # the bound was reached and the heap compacted, not merely small
        bound = solver_module._HEAP_SLACK * solver.n_vars
        assert any(size > bound for size in rebuilds)
        assert len(solver._heap) <= bound

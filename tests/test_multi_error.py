"""The multi-error debug loop: injection sets, grouped localization,
the diagnose→fix→re-detect rounds, cardinality-k SAT pruning, joint
CEGIS, and observation-point retirement."""

import itertools
import json

import pytest

from repro.api import RunSpec, expand_matrix, run_spec
from repro.api.cli import main as cli_main
from repro.debug.correct import apply_correction, synthesize_lut_fix
from repro.debug.detect import GoldenTrace, compare_runs
from repro.debug.errors import (
    ERROR_KINDS,
    inject_error,
    inject_errors,
)
from repro.debug.instrument import (
    add_observation_point,
    remove_observation_points,
)
from repro.debug.testgen import random_stimulus
from repro.errors import DebugFlowError, SpecError
from repro.generators import build_design
from repro.netlist.simulate import replay_outputs
from repro.sat.cnf import CNF, add_at_most_k
from repro.sat.diagnose import SuspectPruner
from repro.sat.solver import Solver

FAST = dict(preset="fast", max_probes=6, cache="private")


def netlist_digest(netlist) -> tuple:
    """Canonical structural signature: tables, wiring, connectivity."""
    insts = tuple(
        (
            inst.name,
            inst.kind.value,
            tuple(n.name for n in inst.inputs),
            inst.output.name if inst.output else None,
            tuple(sorted(inst.params.items())),
        )
        for inst in sorted(netlist.instances(), key=lambda i: i.name)
    )
    nets = tuple(
        (
            net.name,
            net.driver.name if net.driver else None,
            tuple(sorted((i.name, idx) for i, idx in net.sinks)),
        )
        for net in sorted(netlist.nets(), key=lambda n: n.name)
    )
    return insts, nets


# ----------------------------------------------------------------------
# injection
# ----------------------------------------------------------------------

class TestInjectErrors:
    @pytest.mark.parametrize("kind", ERROR_KINDS)
    def test_k1_shim_is_bit_identical(self, kind):
        a = build_design("styr").packed.netlist
        b = build_design("styr").packed.netlist
        rec_single = inject_error(a, kind, seed=5)
        [rec_multi] = inject_errors(b, [kind], seed=5)
        assert (rec_single.kind, rec_single.instance, rec_single.detail,
                rec_single.undo) == (
            rec_multi.kind, rec_multi.instance, rec_multi.detail,
            rec_multi.undo)
        assert netlist_digest(a) == netlist_digest(b)

    def test_k3_distinct_instances(self):
        netlist = build_design("styr").packed.netlist
        records = inject_errors(
            netlist, ["table_bit", "output_invert", "wrong_source"], seed=2
        )
        names = [r.instance for r in records]
        assert len(set(names)) == 3

    def test_single_kind_broadcasts(self):
        netlist = build_design("9sym").packed.netlist
        records = inject_errors(netlist, "table_bit", seed=1, n_errors=3)
        assert [r.kind for r in records] == ["table_bit"] * 3
        assert len({r.instance for r in records}) == 3

    def test_kind_count_mismatch_rejected(self):
        netlist = build_design("9sym").packed.netlist
        with pytest.raises(DebugFlowError):
            inject_errors(netlist, ["table_bit", "input_swap"], n_errors=3)
        with pytest.raises(DebugFlowError):
            inject_errors(netlist, "table_bit", n_errors=0)
        with pytest.raises(DebugFlowError):
            inject_errors(netlist, ["nonesuch"])

    def test_second_wrong_source_is_deterministic(self):
        """The candidate pool of a second injection into an already-
        mutated netlist is a pure function of the netlist state."""
        def run():
            netlist = build_design("styr").packed.netlist
            return inject_errors(
                netlist, ["wrong_source", "wrong_source"], seed=7
            )

        first, second = run(), run()
        assert [(r.instance, r.detail, r.undo) for r in first] == [
            (r.instance, r.detail, r.undo) for r in second
        ]
        assert first[0].instance != first[1].instance

    def test_wrong_source_stays_cycle_safe_when_stacked(self):
        netlist = build_design("styr").packed.netlist
        inject_errors(netlist, ["wrong_source"] * 3, seed=3)
        netlist.topo_order()  # raises ValidationError on a cycle


# ----------------------------------------------------------------------
# undo: apply_correction exactly reverses every kind
# ----------------------------------------------------------------------

class TestCorrectionUndo:
    @pytest.mark.parametrize("kind", ERROR_KINDS)
    @pytest.mark.parametrize("seed", [0, 3])
    def test_k1_every_kind_round_trips(self, kind, seed):
        netlist = build_design("styr").packed.netlist
        before = netlist_digest(netlist)
        record = inject_error(netlist, kind, seed=seed)
        assert netlist_digest(netlist) != before  # injection did change it
        apply_correction(netlist, record)
        assert netlist_digest(netlist) == before

    @pytest.mark.parametrize("seed", [1, 4, 9])
    def test_k3_stack_undoes_in_reverse(self, seed):
        kinds = ["wrong_source", "input_swap", "table_bit"]
        netlist = build_design("styr").packed.netlist
        before = netlist_digest(netlist)
        records = inject_errors(netlist, kinds, seed=seed)
        assert netlist_digest(netlist) != before
        for record in reversed(records):
            apply_correction(netlist, record)
        assert netlist_digest(netlist) == before

    def test_k3_all_same_kind_round_trips(self):
        for kind in ("table_bit", "output_invert", "wrong_function"):
            netlist = build_design("9sym").packed.netlist
            before = netlist_digest(netlist)
            records = inject_errors(netlist, kind, seed=2, n_errors=3)
            for record in reversed(records):
                apply_correction(netlist, record)
            assert netlist_digest(netlist) == before


# ----------------------------------------------------------------------
# observation-point removal
# ----------------------------------------------------------------------

class TestObservationPointRemoval:
    def test_add_then_remove_restores_netlist(self):
        netlist = build_design("styr").packed.netlist
        before = netlist_digest(netlist)
        nets = sorted(
            n.name for n in netlist.nets() if n.driver is not None
            and not n.driver.is_io
        )[:5]
        added, outputs = add_observation_point(
            netlist, nets, "probe0", sticky=True
        )
        assert netlist_digest(netlist) != before
        removed = remove_observation_points(netlist, ["probe0"])
        assert removed.removed_instances == added.new_instances
        assert netlist_digest(netlist) == before

    def test_removal_only_touches_named_point(self):
        netlist = build_design("9sym").packed.netlist
        nets = sorted(
            n.name for n in netlist.nets() if n.driver is not None
            and not n.driver.is_io
        )
        add_observation_point(netlist, nets[:2], "keep", sticky=False)
        mid = netlist_digest(netlist)
        add_observation_point(netlist, nets[2:4], "drop", sticky=False)
        remove_observation_points(netlist, ["drop"])
        assert netlist_digest(netlist) == mid

    def test_unknown_name_is_a_noop(self):
        netlist = build_design("9sym").packed.netlist
        changes = remove_observation_points(netlist, ["nonesuch"])
        assert changes.is_empty


# ----------------------------------------------------------------------
# cardinality constraint
# ----------------------------------------------------------------------

class TestAtMostK:
    @pytest.mark.parametrize("n,k", [(3, 1), (4, 2), (5, 3), (4, 4)])
    def test_matches_brute_force(self, n, k):
        cnf = CNF()
        lits = [cnf.new_var() for _ in range(n)]
        add_at_most_k(cnf, lits, k)
        solver = Solver(cnf, seed=1)
        for bits in itertools.product([False, True], repeat=n):
            assumptions = [
                var if bit else -var for var, bit in zip(lits, bits)
            ]
            expected = sum(bits) <= k
            assert solver.solve(assumptions) == expected, (bits, k)

    def test_zero_forces_all_false(self):
        cnf = CNF()
        lits = [cnf.new_var() for _ in range(3)]
        add_at_most_k(cnf, lits, 0)
        solver = Solver(cnf, seed=1)
        assert solver.solve()
        assert not solver.solve([lits[1]])


# ----------------------------------------------------------------------
# cardinality-k pruner soundness
# ----------------------------------------------------------------------

def _double_fault_case(design, seed, n_patterns=32, n_cycles=4):
    """(dut, trace, mismatches, truth) or None."""
    bundle = build_design(design)
    netlist = bundle.packed.netlist
    golden = netlist.copy(netlist.name + ".golden")
    records = inject_errors(netlist, "table_bit", seed=seed, n_errors=2)
    stimulus = random_stimulus(golden, n_cycles, n_patterns, seed=1)
    trace = GoldenTrace(golden, stimulus, n_patterns)
    mismatches = compare_runs(
        replay_outputs(netlist, stimulus, n_patterns),
        replay_outputs(golden, stimulus, n_patterns),
    )
    if not mismatches:
        return None
    truth = {r.instance for r in records}
    return netlist, trace, mismatches, truth


class TestPrunerSoundness:
    def test_never_eliminates_true_error_instances(self):
        """Across >= 20 seeded double injections, the cardinality-k
        pruner must never eliminate a true error instance, and a
        refuted k-subset must never contain the whole true error set."""
        checked = 0
        for design in ("9sym", "styr", "sand"):
            for seed in range(10):
                case = _double_fault_case(design, seed)
                if case is None:
                    continue
                dut, trace, mismatches, truth = case
                candidates = {
                    i.name for i in dut.instances()
                    if not i.is_io and not i.is_ff and i.output is not None
                    and trace.golden.has_instance(i.name)
                }
                pruner = SuspectPruner(
                    dut, trace, mismatches,
                    seed=seed, n_errors=2, max_checks=6,
                )
                eliminated = pruner.prune(candidates, [])
                assert not (eliminated & truth), (
                    design, seed, eliminated & truth
                )
                _feasible, refuted = pruner.rank_pairs(candidates, [])
                for pair in refuted:
                    assert set(pair) != truth, (design, seed, pair)
                checked += 1
        assert checked >= 20, f"only {checked} detectable double faults"

    def test_k1_mode_unchanged(self):
        case = _double_fault_case("9sym", 1)
        assert case is not None
        dut, trace, mismatches, truth = case
        pruner = SuspectPruner(
            dut, trace, mismatches, seed=1, n_errors=1,
        )
        # single-fault mode still runs the legacy one-hot queries
        pruner.prune({next(iter(truth)), "nonesuch"} | truth, [])
        assert pruner.n_checks >= 1


# ----------------------------------------------------------------------
# joint CEGIS
# ----------------------------------------------------------------------

def _two_fault_toy():
    """out = (a&b) | (c&d) with both AND tables corrupted.

    No single retable repairs it: with ``g2`` stuck at NAND the output
    is forced high whenever ``c&d == 0``, and with ``g1`` stuck at OR
    it is forced high whenever ``a|b``, so each fault's effect is
    observable outside the other LUT's control.
    """
    from repro.netlist.core import Netlist

    def build():
        n = Netlist("toy2")
        a, b, c, d = (n.add_input(x) for x in "abcd")
        g1 = n.add_lut([a, b], 0b1000, name="g1")
        g2 = n.add_lut([c, d], 0b1000, name="g2")
        g3 = n.add_lut([g1.output, g2.output], 0b1110, name="g3")
        n.add_output("out", g3.output)
        return n

    golden = build()
    dut = build()
    dut.set_params(dut.instance("g1"), {"table": 0b1110})  # became OR
    dut.set_params(dut.instance("g2"), {"table": 0b0111})  # became NAND
    return dut, golden


class TestJointCegis:
    def test_pair_repairs_what_singles_cannot(self):
        dut, golden = _two_fault_toy()
        n_patterns = 16
        stimulus = [{
            name: sum(
                ((p >> i) & 1) << p for p in range(16)
            )
            for i, name in enumerate("abcd")
        }]
        mismatches = compare_runs(
            replay_outputs(dut, stimulus, n_patterns),
            replay_outputs(golden, stimulus, n_patterns),
        )
        assert mismatches
        trace = GoldenTrace(golden, stimulus, n_patterns)
        single = synthesize_lut_fix(
            dut.copy("single"), trace, ["g1", "g2"], mismatches,
            max_luts=1,
        )
        # neither AND alone can express OR^AND over the exhaustive set
        assert single is None
        joint = synthesize_lut_fix(
            dut, trace, ["g1", "g2"], mismatches, max_luts=2,
        )
        assert joint is not None
        assert sorted(joint.instances) == ["g1", "g2"]
        assert not compare_runs(
            replay_outputs(dut, stimulus, n_patterns),
            replay_outputs(golden, stimulus, n_patterns),
        )

    def test_single_candidate_path_unchanged(self):
        dut, golden = _two_fault_toy()
        # fix g2 by hand; then g1 alone is a single-LUT repair
        dut.set_params(dut.instance("g2"), {"table": 0b1000})
        n_patterns = 16
        stimulus = [{
            name: sum(((p >> i) & 1) << p for p in range(16))
            for i, name in enumerate("abcd")
        }]
        mismatches = compare_runs(
            replay_outputs(dut, stimulus, n_patterns),
            replay_outputs(golden, stimulus, n_patterns),
        )
        fix = synthesize_lut_fix(
            dut, GoldenTrace(golden, stimulus, n_patterns), ["g1"],
            mismatches,
        )
        assert fix is not None and fix.instances == ["g1"]
        assert fix.table == 0b1000


# ----------------------------------------------------------------------
# spec / CLI / matrix plumbing
# ----------------------------------------------------------------------

class TestMultiErrorSpec:
    def test_round_trip(self):
        spec = RunSpec(
            design="9sym", n_errors=2,
            error_kinds=["table_bit", "input_swap"], max_rounds=3,
            **FAST,
        )
        restored = RunSpec.from_json(spec.to_json())
        assert restored == spec
        assert restored.resolved_error_kinds() == [
            "table_bit", "input_swap",
        ]
        assert restored.effective_max_rounds() == 3

    def test_defaults_resolve(self):
        spec = RunSpec(n_errors=3)
        assert spec.resolved_error_kinds() == ["table_bit"] * 3
        assert spec.effective_max_rounds() == 3
        assert RunSpec().effective_max_rounds() == 1

    @pytest.mark.parametrize("overrides", [
        {"n_errors": 0},
        {"n_errors": "two"},
        {"max_rounds": 0},
        {"error_kinds": []},
        {"error_kinds": ["nonesuch"]},
        {"n_errors": 1, "error_kinds": ["table_bit", "input_swap"]},
    ])
    def test_validation_rejects(self, overrides):
        with pytest.raises(SpecError):
            RunSpec(**overrides)

    def test_expand_matrix_n_errors_axis(self):
        base = RunSpec(design="9sym", **FAST)
        specs = expand_matrix(base, n_errors=[1, 2, 3])
        assert [s.n_errors for s in specs] == [1, 2, 3]
        # an explicit kind list on the base must not pin the axis count
        pinned = RunSpec(design="9sym", n_errors=2,
                         error_kinds=["table_bit", "input_swap"], **FAST)
        specs = expand_matrix(pinned, n_errors=[1, 3])
        assert [s.n_errors for s in specs] == [1, 3]
        assert all(s.error_kinds is None for s in specs)


# ----------------------------------------------------------------------
# the diagnose→fix→re-detect loop, end to end
# ----------------------------------------------------------------------

class TestMultiErrorPipeline:
    def test_k1_reproduces_single_pass_run(self):
        """Explicit n_errors=1 (even with round budget to spare) is the
        historical pipeline bit-for-bit."""
        legacy = run_spec(RunSpec(design="9sym", error_seed=1, **FAST))
        multi = run_spec(RunSpec(design="9sym", error_seed=1, n_errors=1,
                                 max_rounds=3, **FAST))
        assert legacy.trajectory_key() == multi.trajectory_key()
        assert legacy.candidates == multi.candidates
        assert legacy.n_commits == multi.n_commits
        assert multi.n_rounds == 1

    def test_k2_two_round_loop(self):
        result = run_spec(RunSpec(design="9sym", error_seed=6, n_errors=2,
                                  **FAST))
        assert result.detected and result.fixed
        assert result.n_errors_injected == 2 and len(result.errors) == 2
        assert result.n_rounds == 2
        assert result.localized
        assert set(result.errors_found) == {
            e["instance"] for e in result.errors
        }
        # every probe record names its round; rounds partition them
        assert {p["round"] for p in result.probe_trajectory} == {1, 2}
        assert sum(r["n_probes"] for r in result.rounds) == result.n_probes
        # round 2 retired round 1's probes before probing afresh
        assert result.rounds[1]["probes_retired"] > 0
        assert result.rounds[0]["residual_mismatches"] > 0
        assert result.rounds[1]["residual_mismatches"] == 0
        assert result.residual_mismatches == 0

    def test_k2_engines_bit_identical(self):
        compiled = run_spec(RunSpec(design="9sym", error_seed=6, n_errors=2,
                                    engine="compiled", **FAST))
        interpreted = run_spec(RunSpec(design="9sym", error_seed=6,
                                       n_errors=2, engine="interpreted",
                                       **FAST))
        assert compiled.trajectory_key() == interpreted.trajectory_key()
        assert compiled.candidates == interpreted.candidates
        assert compiled.rounds == interpreted.rounds

    def test_k2_prove_verdict(self):
        result = run_spec(RunSpec(design="9sym", error_seed=6, n_errors=2,
                                  verify="prove", **FAST))
        assert result.fixed and result.proved
        assert result.n_rounds == 2

    def test_k2_sat_strategy_prunes_soundly(self):
        result = run_spec(RunSpec(design="9sym", error_seed=6, n_errors=2,
                                  strategy="sat", verify="prove", **FAST))
        assert result.fixed and result.proved
        # SAT eliminations never touched the true error instances
        found = {e["instance"] for e in result.errors}
        assert set(result.errors_found) == found

    def test_k2_drained_round_falls_back_to_oracle(self):
        result = run_spec(RunSpec(design="s9234", error_seed=4, n_errors=2,
                                  verify="prove", **FAST))
        assert result.fixed and result.proved
        assert any(r["drained"] for r in result.rounds)
        assert any("back-annotating" in n for n in result.notes)

    def test_k2_result_json_round_trip(self):
        from repro.api import RunResult

        result = run_spec(RunSpec(design="9sym", error_seed=6, n_errors=2,
                                  **FAST))
        restored = RunResult.from_dict(json.loads(result.to_json()))
        assert restored.to_dict() == result.to_dict()
        assert restored.rounds == result.rounds
        assert restored.errors == result.errors

    def test_budget_exhaustion_reports_residual(self):
        result = run_spec(RunSpec(design="9sym", error_seed=6, n_errors=2,
                                  max_rounds=1, preset="fast", max_probes=6,
                                  cache="private"))
        assert result.n_rounds == 1
        assert not result.fixed
        assert result.residual_mismatches > 0


class TestMultiErrorCli:
    def test_run_flags(self, capsys):
        code = cli_main([
            "run", "--design", "9sym", "--error-seed", "6",
            "--n-errors", "2", "--preset", "fast", "--max-probes", "6",
            "--cache", "private", "--json", "-",
        ])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["n_errors_injected"] == 2
        assert data["n_rounds"] >= 2
        assert data["fixed"] is True
        assert data["spec"]["n_errors"] == 2

    def test_error_kinds_list_implies_count(self, capsys):
        code = cli_main([
            "run", "--design", "9sym", "--error-seed", "6",
            "--error-kinds-list", "table_bit,table_bit",
            "--preset", "fast", "--max-probes", "6",
            "--cache", "private", "--json", "-",
        ])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["spec"]["n_errors"] == 2
        assert data["spec"]["error_kinds"] == ["table_bit", "table_bit"]

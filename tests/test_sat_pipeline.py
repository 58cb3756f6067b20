"""The SAT layer wired through the pipeline: prove, "sat" strategy, CEGIS."""

import os

import pytest

from repro.api import RunSpec, run_spec
from repro.debug.correct import synthesize_lut_fix
from repro.debug.detect import detect_on_layout
from repro.errors import SpecError

FAST = dict(preset="fast", max_probes=6, cache="private")


def fast_spec(**overrides) -> RunSpec:
    merged = {**FAST, "design": "9sym", "error_seed": 1}
    merged.update(overrides)
    return RunSpec(**merged)


FSM_PARAMS = {
    "name": "fsm_t", "n_states": 12, "n_inputs": 4, "n_outputs": 4,
}


# ----------------------------------------------------------------------
# spec plumbing
# ----------------------------------------------------------------------

class TestSpecFields:
    def test_defaults_are_legacy(self):
        spec = RunSpec()
        assert spec.verify == "simulate"
        assert spec.prove_frames is None
        assert spec.correction == "oracle"

    @pytest.mark.parametrize("overrides", [
        {"verify": "nonesuch"},
        {"correction": "nonesuch"},
        {"prove_frames": 0},
        {"prove_frames": "four"},
    ])
    def test_validation(self, overrides):
        with pytest.raises(SpecError):
            RunSpec(**overrides)

    def test_round_trip(self):
        spec = fast_spec(verify="both", prove_frames=3, correction="cegis")
        assert RunSpec.from_json(spec.to_json()) == spec

    def test_cli_flags_override(self):
        from repro.api.cli import build_parser, _spec_from_args

        args = build_parser().parse_args(
            ["run", "--verify", "prove", "--prove-frames", "5",
             "--correction", "cegis"]
        )
        spec = _spec_from_args(args)
        assert spec.verify == "prove"
        assert spec.prove_frames == 5
        assert spec.correction == "cegis"


# ----------------------------------------------------------------------
# verify="prove"
# ----------------------------------------------------------------------

class TestFormalVerify:
    def test_prove_after_fix_on_smallest_design(self):
        result = run_spec(fast_spec(verify="prove"))
        assert result.detected and result.fixed
        assert result.proved is True
        assert result.proof["n_structural"] == len(result.proof["outputs"])
        assert result.counterexample is None

    def test_prove_after_fix_on_fsm(self):
        spec = RunSpec(design="fsm", design_params=FSM_PARAMS,
                       error_seed=3, verify="prove", **FAST)
        result = run_spec(spec)
        assert result.detected and result.localized and result.fixed
        assert result.proved is True

    def test_prove_after_fix_on_s9234(self):
        spec = RunSpec(design="s9234", error_seed=3, verify="prove",
                       preset="fast", cache="private")
        result = run_spec(spec)
        assert result.detected and result.fixed
        assert result.proved is True

    def test_unfixed_error_yields_confirmed_counterexample(self):
        # break the fix: a verify-only pipeline over a netlist whose
        # error was never corrected must produce a counterexample the
        # compiled simulator reproduces
        from repro.api.pipeline import (
            DetectStage, PipelineHooks, RunContext, VerifyStage,
            run_timed_stage,
        )

        spec = fast_spec(verify="prove")
        ctx = RunContext.from_spec(spec, tile_cache=None)
        for stage in (DetectStage(), VerifyStage()):
            run_timed_stage(stage, ctx, PipelineHooks())
        assert ctx.detected
        assert ctx.proved is False
        assert ctx.counterexample is not None
        assert ctx.counterexample_confirmed is True
        assert ctx.remaining, "cex mismatches become the regression record"
        assert ctx.fixed is False

    def test_both_mode_requires_simulation_and_proof(self):
        result = run_spec(fast_spec(verify="both"))
        assert result.fixed and result.proved is True
        assert result.spec["verify"] == "both"


# ----------------------------------------------------------------------
# strategy="sat"
# ----------------------------------------------------------------------

class TestSatStrategy:
    def test_bit_reproducible_and_no_more_probes_than_tiled(self):
        sat1 = run_spec(fast_spec(strategy="sat"))
        sat2 = run_spec(fast_spec(strategy="sat"))
        tiled = run_spec(fast_spec(strategy="tiled"))
        assert sat1.trajectory_key() == sat2.trajectory_key()
        assert sat1.candidates == sat2.candidates
        assert sat1.detected and sat1.localized and sat1.fixed
        assert sat1.n_probes <= tiled.n_probes
        assert sat1.n_sat_eliminated > 0
        assert "sat" in sat1.timings["localization"]

    def test_engine_independent(self):
        compiled = run_spec(fast_spec(strategy="sat", engine="compiled"))
        interp = run_spec(fast_spec(strategy="sat", engine="interpreted"))
        assert compiled.trajectory_key() == interp.trajectory_key()
        assert compiled.candidates == interp.candidates

    def test_s9234_campaign(self):
        sat = run_spec(RunSpec(design="s9234", error_seed=3,
                               strategy="sat", preset="fast",
                               cache="private"))
        tiled = run_spec(RunSpec(design="s9234", error_seed=3,
                                 strategy="tiled", preset="fast",
                                 cache="private"))
        assert sat.localized and sat.fixed
        assert sat.n_probes <= tiled.n_probes

    @pytest.mark.slow
    @pytest.mark.skipif(
        not os.environ.get("REPRO_SLOW"),
        reason="large-design campaigns; set REPRO_SLOW=1",
    )
    @pytest.mark.parametrize("design,error_seed", [
        ("mips", 2), ("des", 1),
    ])
    def test_large_design_campaigns(self, design, error_seed):
        spec = RunSpec(design=design, error_seed=error_seed,
                       strategy="sat", preset="fast", cache="private")
        first = run_spec(spec)
        second = run_spec(spec)
        tiled = run_spec(spec.replaced(strategy="tiled"))
        assert first.localized and first.fixed
        assert first.trajectory_key() == second.trajectory_key()
        assert first.n_probes <= tiled.n_probes


# ----------------------------------------------------------------------
# correction="cegis"
# ----------------------------------------------------------------------

class TestCegisCorrection:
    def test_cegis_fix_verifies_and_proves(self):
        result = run_spec(fast_spec(correction="cegis", verify="both"))
        assert result.fixed and result.proved is True
        assert result.correction is not None
        assert result.correction["iterations"] >= 1
        assert result.correction["instance"] in result.correction["tried"]

    def test_cegis_falls_back_on_structural_errors(self):
        # a rewired input pin admits no truth-table repair at the same
        # support; the stage must note the fallback and still fix via
        # back-annotation
        result = run_spec(
            fast_spec(error_seed=0, error_kind="wrong_source",
                      correction="cegis", max_probes=8)
        )
        assert result.detected and result.fixed
        assert result.correction is None
        assert any("fell back" in note for note in result.notes)

    def test_synthesize_lut_fix_direct(self):
        from repro.api.pipeline import (
            DetectStage, LocalizeStage, PipelineHooks, RunContext,
            run_timed_stage,
        )

        spec = fast_spec()
        ctx = RunContext.from_spec(spec, tile_cache=None)
        for stage in (DetectStage(), LocalizeStage()):
            run_timed_stage(stage, ctx, PipelineHooks())
        assert ctx.detected and ctx.localization is not None
        rev = ctx.packed.netlist.revision
        fix = synthesize_lut_fix(
            ctx.packed.netlist, ctx.trace,
            sorted(ctx.localization.candidates), ctx.mismatches,
        )
        assert fix is not None
        changed, _, _ = ctx.packed.netlist.edits_since(rev)
        assert changed == {fix.instance}
        # the applied retable clears every mismatch on the stimulus
        ctx.strategy.commit(fix.description, anchor_instance=fix.instance)
        remaining, _ = detect_on_layout(ctx.strategy.layout, ctx.trace)
        assert remaining == []

"""The `repro.api` facade: specs, pipeline, results, campaigns, CLI."""

import dataclasses
import json

import pytest

from repro.api import (
    CampaignRunner,
    PipelineHooks,
    RunResult,
    RunSpec,
    expand_matrix,
    run_spec,
)
from repro.api.cli import main as cli_main
from repro.debug import STRATEGY_REGISTRY, make_strategy
from repro.errors import DebugFlowError, SpecError
from repro.generators import build_design

FAST = dict(preset="fast", max_probes=6, cache="private")


def fast_spec(**overrides) -> RunSpec:
    merged = {**FAST, "design": "9sym", "error_seed": 1}
    merged.update(overrides)
    return RunSpec(**merged)


# ----------------------------------------------------------------------
# RunSpec
# ----------------------------------------------------------------------

class TestRunSpec:
    def test_every_field_survives_json_round_trip(self):
        spec = RunSpec(
            design="des",
            design_seed=7,
            design_params={"name": "des_small", "n_rounds": 2,
                           "pipeline": True},
            blif_path=None,
            device="XC4013",
            channel_width=28,
            device_overhead=0.4,
            strategy="incremental",
            preset="thorough",
            engine="interpreted",
            seed=9,
            n_patterns=32,
            n_cycles=4,
            error_kind="wrong_function",
            error_seed=11,
            max_probes=3,
            goal_size=2,
            tiling={"n_tiles": 6, "area_overhead": 0.25},
            cache="private",
            cache_dir="/tmp/somewhere",
        )
        data = json.loads(json.dumps(spec.to_dict()))
        restored = RunSpec.from_dict(data)
        assert restored == spec
        for f in dataclasses.fields(RunSpec):
            assert getattr(restored, f.name) == getattr(spec, f.name)

    def test_defaults_round_trip(self):
        spec = RunSpec()
        assert RunSpec.from_json(spec.to_json()) == spec

    @pytest.mark.parametrize("overrides", [
        {"design": "nonesuch"},
        {"strategy": "nonesuch"},
        {"preset": "nonesuch"},
        {"engine": "nonesuch"},
        {"error_kind": "nonesuch"},
        {"cache": "nonesuch"},
        {"device": "XC9999"},
        {"tiling": {"bogus_key": 1}},
        {"n_patterns": 0},
        {"goal_size": 0},
        # 9sym takes no design_params (not a parameterizable generator)
        {"design": "9sym", "design_params": {"x": 1}},
        # the old alias of quick_eco is gone
        {"strategy": "full"},
    ])
    def test_validation_rejects(self, overrides):
        with pytest.raises(SpecError):
            RunSpec(**overrides)

    def test_spec_error_is_value_error(self):
        with pytest.raises(ValueError):
            RunSpec(design="nonesuch")

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(SpecError, match="unknown spec fields"):
            RunSpec.from_dict({"design": "9sym", "bogus": 1})

    def test_replaced_revalidates(self):
        spec = RunSpec()
        with pytest.raises(SpecError):
            spec.replaced(strategy="nonesuch")

    def test_retired_codegen_engine_rejected(self):
        # no alias: old codegen specs fail validation and name the
        # engines that remain
        with pytest.raises(SpecError, match="compiled, interpreted"):
            RunSpec(engine="codegen")
        with pytest.raises(SpecError):
            RunSpec.from_dict({"design": "9sym", "engine": "codegen"})


# ----------------------------------------------------------------------
# strategy registry
# ----------------------------------------------------------------------

class TestStrategyRegistry:
    def test_unknown_strategy_raises_value_error_listing_names(self):
        bundle = build_design("9sym")
        from repro.api import device_for

        device = device_for(bundle.packed)
        for unknown in ("nonesuch", "full"):
            with pytest.raises(ValueError) as excinfo:
                make_strategy(unknown, bundle.packed, device)
            listed = str(excinfo.value).split("valid strategies: ")[1]
            assert listed == "incremental, quick_eco, sat, tiled"

    def test_unknown_strategy_still_a_debug_flow_error(self):
        bundle = build_design("9sym")
        from repro.api import device_for

        device = device_for(bundle.packed)
        with pytest.raises(DebugFlowError):
            make_strategy("nonesuch", bundle.packed, device)

    def test_registry_exported_from_debug_package(self):
        assert set(STRATEGY_REGISTRY) == {
            "tiled", "sat", "quick_eco", "incremental",
        }


# ----------------------------------------------------------------------
# pipeline + RunResult
# ----------------------------------------------------------------------

class RecordingHooks(PipelineHooks):
    def __init__(self):
        self.stages_started = []
        self.stages_ended = []
        self.probes = []
        self.commits = []

    def on_stage_start(self, stage, ctx):
        self.stages_started.append(stage.name)

    def on_stage_end(self, stage, ctx, seconds):
        self.stages_ended.append(stage.name)

    def on_probe(self, ctx, step):
        self.probes.append(step)

    def on_commit(self, ctx, record):
        self.commits.append(record)


class TestPipeline:
    def test_run_spec_full_flow(self):
        result = run_spec(fast_spec())
        assert result.detected and result.localized and result.fixed
        assert result.error_instance in result.candidates
        assert result.n_probes == len(result.probe_trajectory)
        assert result.n_commits == result.n_probes + 1  # probes + the fix
        assert set(result.timings["stages"]) == {
            "detect", "localize", "correct", "verify",
        }
        assert result.spec == fast_spec().to_dict()

    def test_hooks_observe_stages_probes_commits(self):
        hooks = RecordingHooks()
        result = run_spec(fast_spec(), hooks=hooks)
        assert hooks.stages_started == [
            "detect", "localize", "correct", "verify",
        ]
        assert hooks.stages_ended == hooks.stages_started
        assert len(hooks.probes) == result.n_probes
        assert len(hooks.commits) == result.n_commits

    def test_undetected_error_reports_cleanly(self):
        result = run_spec(fast_spec(error_seed=2))
        assert not result.detected and not result.fixed
        assert result.n_probes == 0 and result.n_commits == 0
        assert any("never excited" in note for note in result.notes)

    def test_result_json_round_trip(self):
        result = run_spec(fast_spec())
        restored = RunResult.from_dict(json.loads(result.to_json()))
        assert restored.to_dict() == result.to_dict()
        for f in dataclasses.fields(RunResult):
            assert getattr(restored, f.name) == getattr(result, f.name)

    @pytest.mark.parametrize("overrides", [
        {},
        {"design": "9sym", "error_seed": 3},
        {"design": "9sym", "error_seed": 7},
        {"design": "s9234", "error_seed": 3},
        {"design": "s9234", "error_seed": 5},
        {"design": "9sym", "error_seed": 6, "n_errors": 2,
         "strategy": "sat", "verify": "prove"},
    ], ids=["9sym-1", "9sym-3", "9sym-7", "s9234-3", "s9234-5",
            "9sym-6-k2-sat"])
    def test_engines_bit_identical(self, overrides):
        # compiled probe verdicts replay cone slices, interpreted ones
        # replay the whole design: the outcomes must not tell them apart
        compiled = run_spec(fast_spec(engine="compiled", **overrides))
        interpreted = run_spec(fast_spec(engine="interpreted", **overrides))
        assert compiled.n_probes > 0
        assert compiled.trajectory_key() == interpreted.trajectory_key()
        assert compiled.candidates == interpreted.candidates
        assert compiled.fixed == interpreted.fixed
        assert compiled.proved == interpreted.proved


# ----------------------------------------------------------------------
# campaigns
# ----------------------------------------------------------------------

class TestCampaign:
    def test_expand_matrix_order_and_values(self):
        base = fast_spec()
        specs = expand_matrix(
            base, designs=["9sym", "styr"], error_seeds=[1, 5]
        )
        assert [(s.design, s.error_seed) for s in specs] == [
            ("9sym", 1), ("9sym", 5), ("styr", 1), ("styr", 5),
        ]
        # untouched axes keep the base value
        assert all(s.preset == "fast" for s in specs)

    def test_expand_matrix_no_axes(self):
        base = fast_spec()
        assert expand_matrix(base) == [base]

    def test_expand_matrix_empty_axes_keep_base(self):
        # an empty CSV flag (--designs "") must not collapse the matrix
        # to zero runs; empty axes behave exactly like omitted ones
        base = fast_spec()
        assert expand_matrix(base, designs=[], seeds=[]) == [base]
        specs = expand_matrix(base, designs=[], error_seeds=[1, 5])
        assert [s.error_seed for s in specs] == [1, 5]
        assert all(s.design == base.design for s in specs)

    def test_expand_matrix_single_spec_matrix(self):
        base = fast_spec()
        specs = expand_matrix(base, designs=["styr"])
        assert len(specs) == 1
        assert specs[0] == base.replaced(design="styr")

    def test_workers_do_not_change_results(self):
        specs = expand_matrix(fast_spec(), error_seeds=[1, 3, 5])
        serial = CampaignRunner(workers=1).run(specs)
        runner = CampaignRunner(workers=4)
        threaded = runner.run(specs)
        assert serial.n_runs == threaded.n_runs == 3
        # each run counts only its own lookups, even with four threads
        # sharing the campaign's one private cache: together they
        # account for all of its
        (shared,) = runner._policy_caches.values()
        for key in ("hits", "misses", "stores", "rejected"):
            total = sum(r.cache[key] for r in threaded.results)
            assert total == threaded.cache[key] == getattr(shared, key)
        for a, b in zip(serial.results, threaded.results):
            assert a.trajectory_key() == b.trajectory_key()
            assert a.candidates == b.candidates
            assert (a.detected, a.localized, a.fixed) == (
                b.detected, b.localized, b.fixed
            )

    def test_campaign_result_round_trip(self, tmp_path):
        campaign = CampaignRunner().run([fast_spec()])
        path = tmp_path / "campaign.json"
        campaign.save(str(path))
        from repro.api import CampaignResult

        restored = CampaignResult.load(str(path))
        assert restored.to_dict() == campaign.to_dict()

    def test_cache_dir_warms_second_campaign(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        # "private" keeps the test hermetic: each campaign starts from
        # its own cache, warmed only by what --cache-dir persisted
        specs = [fast_spec(cache="private")]
        cold = CampaignRunner(cache_dir=cache_dir).run(specs)
        assert cold.cache["hits"] == 0
        warm = CampaignRunner(cache_dir=cache_dir).run(specs)
        assert warm.cache["hits"] > 0
        assert warm.cache["hit_rate"] > 0
        for a, b in zip(cold.results, warm.results):
            assert a.trajectory_key() == b.trajectory_key()
            assert a.candidates == b.candidates

    def test_caching_never_changes_the_answer(self):
        """New error seeds on one design replay its P&R, and the
        replayed runs report exactly what cold runs compute."""
        from perfbench.checks import comparable

        seeds = list(range(1, 7))
        cached = CampaignRunner().run(
            expand_matrix(fast_spec(cache="private"), error_seeds=seeds)
        )
        cold = CampaignRunner().run(
            expand_matrix(fast_spec(cache="off"), error_seeds=seeds)
        )
        assert [r.spec["error_seed"] for r in cached.results] == seeds
        assert all(r.cache["hits"] > 0 for r in cached.results[1:])
        assert all(r.cache is None for r in cold.results)

        def answer(result):
            # the spec differs in its cache policy, and the commit hit
            # count is a cache counter, not an outcome
            fields = comparable(result)
            for name in ("spec", "n_commit_cache_hits"):
                fields.pop(name)
            return fields

        for a, b in zip(cached.results, cold.results):
            assert answer(a) == answer(b)

    def test_invalid_worker_count(self):
        with pytest.raises(ValueError):
            CampaignRunner(workers=0)


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------

class TestCli:
    def test_run_emits_result_json(self, tmp_path, capsys):
        out = tmp_path / "result.json"
        code = cli_main([
            "run", "--design", "9sym", "--error-seed", "1",
            "--preset", "fast", "--max-probes", "6",
            "--cache", "private", "--json", str(out),
        ])
        assert code == 0
        data = json.loads(out.read_text())
        assert data["localized"] is True and data["fixed"] is True

    def test_run_json_to_stdout(self, capsys):
        code = cli_main([
            "run", "--design", "9sym", "--error-seed", "1",
            "--preset", "fast", "--cache", "private", "--json", "-",
        ])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["design"] == "9sym"

    def test_campaign_and_report(self, tmp_path, capsys):
        out = tmp_path / "campaign.json"
        code = cli_main([
            "campaign", "--designs", "9sym", "--error-seeds", "1,3",
            "--preset", "fast", "--max-probes", "6",
            "--cache", "private", "--out", str(out),
        ])
        assert code == 0
        data = json.loads(out.read_text())
        assert data["n_runs"] == 2
        capsys.readouterr()
        assert cli_main(["report", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "9sym" in printed

    def test_report_on_saved_campaign_file(self, tmp_path, capsys):
        # report must work from the file alone — no live objects: a
        # fabricated results payload stands in for an old campaign
        from repro.api import CampaignResult

        runs = []
        for design, fixed in (("9sym", True), ("styr", False)):
            runs.append(RunResult(
                design=design, strategy="tiled", engine="compiled",
                error_kind="table_bit", error_instance="lut$1",
                detected=True, localized=fixed, fixed=fixed,
                n_probes=3, n_commits=4,
                effort={"debug": {"work_units": 123.0}},
                wall_seconds=1.5,
            ))
        campaign = CampaignResult(results=runs, wall_seconds=3.0,
                                  workers=2,
                                  cache={"hits": 1.0, "misses": 2.0,
                                         "hit_rate": 1 / 3})
        path = tmp_path / "old_campaign.json"
        campaign.save(str(path))
        assert cli_main(["report", str(path)]) == 0
        printed = capsys.readouterr().out
        assert "9sym" in printed and "styr" in printed
        assert "2 runs, 2 detected, 1 localized, 1 fixed" in printed
        assert "hit rate 0.33" in printed

    def test_report_on_single_run_file(self, tmp_path, capsys):
        result = RunResult(design="9sym", strategy="tiled",
                           engine="compiled", detected=True, fixed=True)
        path = tmp_path / "run.json"
        path.write_text(result.to_json())
        assert cli_main(["report", str(path)]) == 0
        assert "9sym" in capsys.readouterr().out

    def test_version_flag(self, capsys):
        from repro._version import __version__

        with pytest.raises(SystemExit) as exc:
            cli_main(["--version"])
        assert exc.value.code == 0
        assert f"repro {__version__}" in capsys.readouterr().out

    def test_run_json_is_self_describing(self, capsys):
        # the emitted payload carries the spec's *resolved* defaults
        code = cli_main([
            "run", "--design", "9sym", "--error-seed", "1",
            "--preset", "fast", "--cache", "private", "--json", "-",
        ])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        spec = data["spec"]
        assert spec["design"] == "9sym" and spec["preset"] == "fast"
        # fields never mentioned on the command line appear resolved
        assert spec["n_patterns"] == 64
        assert spec["strategy"] == "tiled"
        assert spec["verify"] == "simulate"
        assert spec["correction"] == "oracle"

    def test_bad_spec_exits_2(self, capsys):
        assert cli_main(["run", "--design", "nonesuch"]) == 2

    def test_retired_codegen_engine_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main(["run", "--design", "9sym", "--engine", "codegen"])
        assert exc.value.code == 2
        assert "invalid choice: 'codegen'" in capsys.readouterr().err

    def test_undetected_run_exits_1(self, tmp_path):
        code = cli_main([
            "run", "--design", "9sym", "--error-seed", "2",
            "--preset", "fast", "--cache", "private",
        ])
        assert code == 1


class TestDesignParamsValidation:
    def test_unknown_generator_kwargs_fail_fast(self):
        with pytest.raises(SpecError, match="not accepted by"):
            RunSpec(design="mips",
                    design_params={"name": "x", "n_rounds": 2})

    def test_matching_generator_kwargs_accepted(self):
        spec = RunSpec(design="des",
                       design_params={"name": "d", "n_rounds": 2})
        assert RunSpec.from_json(spec.to_json()) == spec

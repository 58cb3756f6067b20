"""Debug package: injection, test generation, instrumentation, detection,
localization, correction, and the full loop."""

import pytest

from repro.debug import (
    ERROR_KINDS,
    add_control_point,
    add_observation_point,
    apply_correction,
    compare_runs,
    exhaustive_patterns,
    inject_error,
    make_strategy,
    random_patterns,
    random_stimulus,
)
from repro.debug.instrument import test_logic_block as make_test_logic_block
from repro.errors import DebugFlowError
from repro.netlist import check_netlist
from repro.netlist.simulate import replay_outputs
from repro.synth import map_to_luts, pack_netlist
from tests.conftest import comb_outputs, make_adder_netlist


def mapped_adder(width=5, registered=True):
    return map_to_luts(make_adder_netlist(width, registered=registered))


def mapped_random(seed=0):
    """Random logic with MUX cells — has asymmetric LUTs for input_swap."""
    from repro.generators.random_logic import random_sequential_netlist

    return map_to_luts(
        random_sequential_netlist(
            f"dbg{seed}", n_inputs=6, n_outputs=5, n_ffs=4, n_gates=30,
            seed=seed,
        )
    )


class TestInjection:
    @pytest.mark.parametrize("kind", ERROR_KINDS)
    def test_injection_changes_behaviour_or_structure(self, kind):
        golden = mapped_random()
        dut = golden.copy()
        record = inject_error(dut, kind, seed=3)
        check_netlist(dut)
        assert record.kind == kind
        assert dut.has_instance(record.instance)
        # structure or function must differ from golden
        differs = False
        for inst in dut.instances():
            ginst = golden.instance(inst.name)
            if (
                inst.params != ginst.params
                or [n.name for n in inst.inputs]
                != [n.name for n in ginst.inputs]
            ):
                differs = True
        assert differs

    @pytest.mark.parametrize("kind", ERROR_KINDS)
    def test_correction_restores_function(self, kind):
        golden = mapped_random(seed=1)
        dut = golden.copy()
        record = inject_error(dut, kind, seed=5)
        apply_correction(dut, record)
        check_netlist(dut)
        ins = random_patterns(golden, 64, seed=9)
        # compare sequentially (designs have registers)
        assert replay_outputs(dut, [ins] * 4, 64) == replay_outputs(
            golden, [ins] * 4, 64
        )

    def test_unknown_kind_rejected(self):
        with pytest.raises(DebugFlowError):
            inject_error(mapped_adder(), "gamma_ray", seed=0)


class TestTestgen:
    def test_random_patterns_cover_all_inputs(self):
        n = mapped_adder()
        pats = random_patterns(n, 16, seed=1)
        names = {pi.name.split(":", 1)[-1] for pi in n.primary_inputs()}
        assert set(pats) == names

    def test_exhaustive_patterns(self):
        n = mapped_adder(2, registered=False)
        words, count = exhaustive_patterns(n)
        assert count == 1 << len(words)
        # every input column is a distinct mask pattern
        assert len(set(words.values())) == len(words)

    def test_exhaustive_cap(self):
        n = mapped_adder(12, registered=False)
        with pytest.raises(DebugFlowError):
            exhaustive_patterns(n, max_inputs=8)

    def test_stimulus_shape(self):
        n = mapped_adder()
        stim = random_stimulus(n, 5, 8, seed=2)
        assert len(stim) == 5
        assert all(len(cycle) == len(n.primary_inputs()) for cycle in stim)


class TestInstrumentation:
    def test_observation_point_exports_flag(self):
        n = mapped_adder()
        watch = [n.primary_outputs()[0].inputs[0].name]
        rev = n.revision
        outputs = add_observation_point(n, watch, "w0")
        check_netlist(n)
        assert "obs_probe_w0" in outputs
        assert "obs_flag_w0" in outputs
        assert n.edits_since(rev)[1]

    def test_sticky_flag_latches(self):
        n = mapped_adder(3, registered=False)
        target = n.primary_outputs()[0].inputs[0].name
        add_observation_point(n, [target], "w", sticky=True)
        base = {f"a[{i}]": 0 for i in range(3)} | {
            f"b[{i}]": 0 for i in range(3)
        }
        pulse = dict(base) | {"a[0]": 1}
        # the pulse raises the parity flag; it must remain set after
        _, out = replay_outputs(n, [pulse, base])
        assert out["obs_flag_w"] == 1

    def test_control_point_forces_value(self):
        n = mapped_adder(3, registered=False)
        target_net = n.primary_outputs()[0].inputs[0].name
        inputs = add_control_point(n, target_net, "c")
        check_netlist(n)
        assert inputs == ["ctl_en_c", "ctl_val_c"]
        base = {f"a[{i}]": 0 for i in range(3)}
        base |= {f"b[{i}]": 0 for i in range(3)}
        # un-forced: s[0] = 0; forced: s[0] = 1
        free = comb_outputs(n, base | {"ctl_en_c": 0, "ctl_val_c": 0}, 1)
        forced = comb_outputs(n, base | {"ctl_en_c": 1, "ctl_val_c": 1}, 1)
        assert free["s[0]"] == 0
        assert forced["s[0]"] == 1

    def test_test_logic_block_size(self):
        n = mapped_adder()
        anchor = n.primary_outputs()[0].inputs[0].name
        rev = n.revision
        make_test_logic_block(n, n_clbs=5, attach_net=anchor, name="t")
        _, added, _ = n.edits_since(rev)
        check_netlist(n)
        packed = pack_netlist(n)
        # the new cells pack to exactly the requested CLB count
        from repro.synth.pack import BlockKind

        new_clbs = {
            packed.block_of_instance[i]
            for i in added
            if not i.startswith("po:")
        }
        assert len(new_clbs) == 5


class TestDetection:
    def test_compare_runs_finds_mismatch(self):
        a = [{"y": 0b01, "z": 0}]
        b = [{"y": 0b11, "z": 0}]
        mm = compare_runs(a, b)
        assert len(mm) == 1
        assert mm[0].output == "y"
        assert mm[0].diff_mask == 0b10
        assert mm[0].n_patterns_failing == 1

    def test_compare_ignores_one_sided_outputs(self):
        a = [{"y": 1, "obs_flag_x": 1}]
        b = [{"y": 1}]
        assert compare_runs(a, b) == []


def run_adder_loop(strategy, seed, error_kind, error_seed):
    """The full pipeline on a mapped 6-bit adder (not a registry design,
    so the context is built by hand instead of from a spec)."""
    from repro.api.design import device_for
    from repro.api.pipeline import DebugPipeline, RunContext
    from repro.api.spec import RunSpec

    # the spec carries the run settings; its design fields go unused
    spec = RunSpec(strategy=strategy, preset="fast", seed=seed,
                   n_cycles=5, n_patterns=64, error_kind=error_kind,
                   error_seed=error_seed)
    packed = pack_netlist(mapped_adder(6))
    device = device_for(packed)
    ctx = RunContext(
        packed=packed,
        device=device,
        golden=packed.netlist.copy(f"{packed.netlist.name}.golden"),
        strategy=make_strategy(
            strategy, packed, device, seed=seed,
            preset=spec.effort_preset(),
        ),
        spec=spec,
    )
    DebugPipeline().execute(ctx)
    return ctx


class TestSession:
    @pytest.mark.parametrize("strategy", ["tiled", "quick_eco", "incremental"])
    def test_full_loop_fixes_error(self, strategy):
        ctx = run_adder_loop(strategy, seed=11, error_kind="output_invert",
                             error_seed=2)
        assert ctx.detected
        assert ctx.fixed
        assert ctx.strategy.total_effort.work_units > 0

    def test_tiled_session_localizes(self):
        ctx = run_adder_loop("tiled", seed=13, error_kind="wrong_function",
                             error_seed=7)
        assert ctx.detected and ctx.fixed
        assert ctx.localization is not None
        assert ctx.localization.candidates


def test_repeat_probe_reuses_its_verdict():
    """When no probe splits the candidates, the fallback pick repeats a
    mismatching probe: each repeat reuses the round's verdict instead
    of committing the same observation point again, and the trajectory
    is unchanged (s9234 ``wrong_source`` 9 picks ``mux2$449`` eight
    times, every verdict keeping all 319 candidates)."""
    from repro.api import RunSpec, run_spec

    result = run_spec(RunSpec(
        design="s9234", error_kind="wrong_source", error_seed=9,
        strategy="tiled", preset="fast", cache="private",
    ))
    assert [s["probe"] for s in result.probe_trajectory] == ["mux2$449"] * 8
    assert all(s["mismatch"] and s["candidates_after"] == 319
               for s in result.probe_trajectory)
    assert result.n_probes == 8
    # one observation point and the correction
    assert result.n_commits == 2
    assert (result.status, result.detected, result.localized,
            result.fixed) == ("ok", True, True, True)
    assert len(result.candidates) == 319


def test_round_verdicts_read_the_dut_trace(monkeypatch):
    """Probe commits only add logic, so round 1's verdicts read the DUT
    trace detection recorded: on 9sym error seed 1 the five verdicts
    (two mismatches, then three matches) record no trace and make no
    ``Emulator.step`` and no ``CompiledKernel._evaluate`` call."""
    from repro.api import RunSpec, run_spec
    from repro.debug import localize
    from repro.debug.localize import ConeLocalizer
    from repro.emu.emulator import Emulator
    from repro.netlist.compiled import CompiledKernel

    counts = {"verdicts": 0, "records": 0, "steps": 0, "evaluations": 0}
    inside = [False]

    def counted(fn, key):
        def wrapper(*args, **kwargs):
            if inside[0]:
                counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    verdict = ConeLocalizer._probe_disagrees

    def judged(self, *args):
        counts["verdicts"] += 1
        inside[0] = True
        try:
            return verdict(self, *args)
        finally:
            inside[0] = False

    monkeypatch.setattr(Emulator, "step", counted(Emulator.step, "steps"))
    monkeypatch.setattr(CompiledKernel, "_evaluate",
                        counted(CompiledKernel._evaluate, "evaluations"))
    monkeypatch.setattr(ConeLocalizer, "_probe_disagrees", judged)
    monkeypatch.setattr(localize, "record",
                        counted(localize.record, "records"))
    result = run_spec(RunSpec(
        design="9sym", error_seed=1, preset="fast", cache="private",
    ))
    assert [s["mismatch"] for s in result.probe_trajectory] == [
        True, True, False, False, False,
    ]
    assert {s["round"] for s in result.probe_trajectory} == {1}
    assert counts == {
        "verdicts": 5, "records": 0, "steps": 0, "evaluations": 0,
    }
    assert result.localized and result.fixed


def test_the_dut_trace_dies_with_the_diagnose_loop():
    """Localization is the DUT trace's last reader: the trace is live
    when a localize stage ends and gone once the run returns, and the
    des error seed 1 run keeps its pinned outcome."""
    import hashlib
    import json

    from repro.api import PipelineHooks, RunSpec, run_spec

    live = []

    class Watch(PipelineHooks):
        def on_stage_end(self, stage, ctx, seconds):
            if stage.name == "localize":
                live.append(ctx.dut_trace is not None)

    result, ctx = run_spec(
        RunSpec(design="des", error_seed=1, preset="fast"),
        hooks=Watch(), return_context=True,
    )
    assert live == [True]
    assert ctx.dut_trace is None

    def digest(value):
        text = json.dumps(value, sort_keys=True)
        return hashlib.sha256(text.encode()).hexdigest()

    assert (result.status, result.n_commits) == ("ok", 9)
    assert digest(result.candidates) == (
        "55adbd0c6c5d4529dadf812cbe2a6d6ca1947ca74f49e7e186aa7092af50926a"
    )
    assert digest(result.probe_trajectory) == (
        "f65886a591df193438a979f6feaa78d5b1bcd5c12588bfa63c7afdc52e861fdc"
    )

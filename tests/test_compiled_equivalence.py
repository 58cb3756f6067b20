"""Compiled-vs-interpreted engine equivalence (property-based).

The compiled instruction-tape kernel must be bit-exact against the
interpreted reference on outputs, probe words and next-FF-state — for
randomized designs, across error kinds and stimulus seeds, before and
after ECO edits (error injection, observation-point insertion, control
points, correction), and whether the edits reach the kernel
incrementally or force a full recompile.  Its cone-sliced probe
runners must agree with full replay on the sliced ports, and the
golden trace's output projection must equal a plain replay.
"""

from hypothesis import assume, given, settings, strategies as st

from repro.debug import ERROR_KINDS, apply_correction, inject_error
from repro.debug.detect import GoldenTrace
from repro.debug.instrument import add_control_point, add_observation_point
from repro.errors import DebugFlowError
from repro.generators.random_logic import random_sequential_netlist
from repro.netlist import CombinationalSimulator, CompiledKernel, initial_state
from repro.netlist.simulate import SequentialSimulator, replay_outputs
from repro.rng import make_rng
from repro.synth import map_to_luts
from repro.tiling.eco import ChangeRecorder

ALL_ENGINES = ("interpreted", "compiled")


def _random_design(seed: int, mapped: bool):
    netlist = random_sequential_netlist(
        f"eq{seed}", n_inputs=7, n_outputs=5, n_ffs=6, n_gates=40, seed=seed
    )
    return map_to_luts(netlist) if mapped else netlist


def _input_names(netlist):
    return {pi.name.split(":", 1)[-1] for pi in netlist.primary_inputs()}


def _assert_equivalent(netlist, kernel, seed, n_patterns=64, n_cycles=3):
    """Outputs, probe words and FF next-state agree for a few cycles."""
    interp = CombinationalSimulator(netlist)
    rng = make_rng(seed, "eq-stim")
    names = _input_names(netlist)
    state = initial_state(netlist, n_patterns)
    for _ in range(n_cycles):
        inputs = {n: rng.getrandbits(n_patterns) for n in names}
        out_i, next_i = interp.next_state(inputs, n_patterns, state)
        out_c, next_c = kernel.next_state(inputs, n_patterns, state)
        assert out_i == out_c
        assert next_i == next_c
        assert interp.probe(inputs, n_patterns, state) == kernel.probe(
            inputs, n_patterns, state
        )
        state = next_i


@given(seed=st.integers(0, 10_000), mapped=st.booleans())
@settings(max_examples=15, deadline=None)
def test_engines_agree_on_random_designs(seed, mapped):
    netlist = _random_design(seed, mapped)
    _assert_equivalent(netlist, CompiledKernel(netlist), seed)


@given(
    seed=st.integers(0, 5_000),
    kind=st.sampled_from(ERROR_KINDS),
    stim_seed=st.integers(0, 1_000),
)
@settings(max_examples=12, deadline=None)
def test_engine_replay_identity(seed, kind, stim_seed):
    """interpreted vs compiled over designs × errors × stimuli."""
    netlist = _random_design(seed, mapped=True)
    try:
        inject_error(netlist, kind, seed=seed)
    except DebugFlowError:
        assume(False)  # e.g. only symmetric LUTs for input_swap
    rng = make_rng(stim_seed, "tri-stim")
    names = _input_names(netlist)
    stim = [
        {n: rng.getrandbits(48) for n in names} for _ in range(4)
    ]
    # one cycle whose map lacks an input port: every replay reads it as 0
    stim.append({n: rng.getrandbits(48) for n in sorted(names)[1:]})
    replays = [
        replay_outputs(netlist, stim, 48, engine=e) for e in ALL_ENGINES
    ]
    assert replays[0] == replays[1]
    for engine, replay in zip(ALL_ENGINES, replays):
        assert GoldenTrace(netlist, stim, 48, engine).outputs == replay


@given(
    seed=st.integers(0, 5_000),
    kind=st.sampled_from(ERROR_KINDS),
)
@settings(max_examples=15, deadline=None)
def test_engines_agree_across_eco_edits(seed, kind):
    """Inject → observe → control → correct, applied incrementally."""
    netlist = _random_design(seed, mapped=True)
    kernel = CompiledKernel(netlist)
    _assert_equivalent(netlist, kernel, seed)

    with ChangeRecorder(netlist, "inject") as rec:
        try:
            record = inject_error(netlist, kind, seed=seed)
        except DebugFlowError:
            assume(False)  # e.g. only symmetric LUTs for input_swap
    kernel.apply_changeset(rec.changes)
    _assert_equivalent(netlist, kernel, seed + 1)

    watch = netlist.primary_outputs()[0].inputs[0].name
    changes, _ = add_observation_point(netlist, [watch], "eq", sticky=True)
    kernel.apply_changeset(changes)
    _assert_equivalent(netlist, kernel, seed + 2)

    target = next(
        i.output.name
        for i in netlist.instances()
        if i.is_lut and i.output.sinks
    )
    changes, _ = add_control_point(netlist, target, "eqc")
    kernel.apply_changeset(changes)
    _assert_equivalent(netlist, kernel, seed + 3)

    changes = apply_correction(netlist, record)
    kernel.apply_changeset(changes)
    _assert_equivalent(netlist, kernel, seed + 4)

    # every edit above must have gone through the incremental path
    assert kernel.compile_count == 1
    assert kernel.incremental_count == 4


@given(seed=st.integers(0, 5_000))
@settings(max_examples=10, deadline=None)
def test_incremental_matches_full_recompile(seed):
    """The incrementally patched kernel equals a from-scratch lowering."""
    netlist = _random_design(seed, mapped=True)
    kernel = CompiledKernel(netlist)
    with ChangeRecorder(netlist, "inject") as rec:
        inject_error(netlist, "table_bit", seed=seed)
    kernel.apply_changeset(rec.changes)
    fresh = CompiledKernel(netlist)
    rng = make_rng(seed, "ifull")
    names = _input_names(netlist)
    inputs = {n: rng.getrandbits(64) for n in names}
    state = initial_state(netlist, 64)
    assert kernel.probe(inputs, 64, state) == fresh.probe(inputs, 64, state)
    assert kernel.next_state(inputs, 64, state) == fresh.next_state(
        inputs, 64, state
    )


@given(seed=st.integers(0, 5_000))
@settings(max_examples=8, deadline=None)
def test_untracked_mutations_trigger_full_recompile(seed):
    """Edits made without a changeset are caught by the revision check."""
    netlist = _random_design(seed, mapped=True)
    kernel = CompiledKernel(netlist)
    inject_error(netlist, "output_invert", seed=seed)
    # no apply_changeset: next use must notice the revision bump
    _assert_equivalent(netlist, kernel, seed)
    assert kernel.compile_count == 2


@given(seed=st.integers(0, 5_000))
@settings(max_examples=8, deadline=None)
def test_cone_runner_matches_full_replay(seed):
    """A cone-sliced probe runner reproduces full-replay port values."""
    netlist = _random_design(seed, mapped=True)
    inject_error(netlist, "table_bit", seed=seed)
    watch = netlist.primary_outputs()[0].inputs[0].name
    add_observation_point(netlist, [watch], "cr", sticky=False)
    kernel = CompiledKernel(netlist)
    port = "obs_probe_cr"
    runner = kernel.cone_runner((port,))
    assert runner is not None
    full = SequentialSimulator(netlist, engine="interpreted")
    rng = make_rng(seed, "cone-stim")
    names = _input_names(netlist)
    full.reset(32)
    runner.reset(32)
    for _ in range(5):
        inputs = {n: rng.getrandbits(32) for n in names}
        out_full = full.step(inputs, 32)
        out_slice = runner.step(inputs, 32)
        assert out_slice[port] == out_full[port]


@given(seed=st.integers(0, 5_000), engine=st.sampled_from(ALL_ENGINES))
@settings(max_examples=8, deadline=None)
def test_sequential_simulator_engines_agree(seed, engine):
    netlist = _random_design(seed, mapped=False)
    ref = SequentialSimulator(netlist, engine="interpreted")
    dut = SequentialSimulator(netlist, engine=engine)
    rng = make_rng(seed, "seq")
    names = _input_names(netlist)
    ref.reset(32)
    dut.reset(32)
    for _ in range(4):
        inputs = {n: rng.getrandbits(32) for n in names}
        assert ref.step(inputs, 32) == dut.step(inputs, 32)
    assert ref.state == dut.state

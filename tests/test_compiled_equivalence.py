"""Compiled-vs-interpreted engine equivalence (property-based).

The compiled instruction-tape kernel must be bit-exact against the
interpreted reference on outputs, probe words and next-FF-state — for
randomized designs, across error kinds and stimulus seeds, before and
after ECO edits (error injection, observation-point insertion, control
points, correction), recorded in a changeset or not, which the kernel
re-lowers incrementally from the netlist's edit log.  Its cone-sliced
probe runners must agree with full replay on the sliced ports, also
when they share a round record of slot words, and the golden trace's
output projection and detection on an unmodified layout must equal a
plain replay.  Every LUT micro-kernel must equal the minterm reference
``eval_lut`` with no more operators than the minterm sum-of-products
(:func:`_sop_source`, kept here as the reference).
"""

import ast
import os

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.arch import pick_device
from repro.debug import ERROR_KINDS, apply_correction, inject_error
from repro.debug.detect import GoldenTrace, detect_on_layout
from repro.debug.instrument import add_control_point, add_observation_point
from repro.emu import Emulator
from repro.errors import DebugFlowError, NetlistError
from repro.generators import build_design
from repro.generators.random_logic import random_sequential_netlist
from repro.netlist import CombinationalSimulator, CompiledKernel, initial_state
from repro.netlist.cells import CellKind, eval_lut
from repro.netlist.compiled import (
    OP_LUT,
    SlotRecord,
    _build_fn,
    _function,
    _gen_source,
)
from repro.netlist.core import port_name
from repro.netlist.simulate import replay_outputs
from repro.pnr import EFFORT_PRESETS, full_place_and_route
from repro.rng import make_rng
from repro.synth import map_to_luts, pack_netlist
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
    packed = pack_netlist(netlist)
    device = pick_device(
        packed.n_clbs, area_overhead=0.8, min_io=len(packed.io_blocks())
    )
    layout = full_place_and_route(
        packed, device, seed=seed, preset=EFFORT_PRESETS["fast"],
        strict_routing=False,
    )
    for engine, replay in zip(ALL_ENGINES, replays):
        trace = GoldenTrace(netlist, stim, 48, engine)
        assert trace.outputs == replay
        assert detect_on_layout(layout, trace) == []
    # a probe verdict's slice of each output port, sharing one record
    emulator = Emulator(layout, engine="compiled")
    record = SlotRecord(len(stim))
    for po in netlist.primary_outputs():
        port = port_name(po)
        runner = emulator.cone_runner((port,), record)
        runner.reset(48)
        sliced = [runner.step(cycle, 48)[port] for cycle in stim]
        assert sliced == [cycle[port] for cycle in replays[0]]


@given(
    seed=st.integers(0, 5_000),
    kind=st.sampled_from(ERROR_KINDS),
)
@settings(max_examples=15, deadline=None)
def test_engines_agree_across_eco_edits(seed, kind):
    """Inject → observe → control → correct, each edit followed by a use
    of the kernel, which re-lowers it incrementally."""
    netlist = _random_design(seed, mapped=True)
    kernel = CompiledKernel(netlist)
    _assert_equivalent(netlist, kernel, seed)

    try:
        record = inject_error(netlist, kind, seed=seed)
    except DebugFlowError:
        assume(False)  # e.g. only symmetric LUTs for input_swap
    _assert_equivalent(netlist, kernel, seed + 1)

    watch = netlist.primary_outputs()[0].inputs[0].name
    add_observation_point(netlist, [watch], "eq", sticky=True)
    _assert_equivalent(netlist, kernel, seed + 2)

    target = next(
        i.output.name
        for i in netlist.instances()
        if i.is_lut and i.output.sinks
    )
    add_control_point(netlist, target, "eqc")
    _assert_equivalent(netlist, kernel, seed + 3)

    apply_correction(netlist, record)
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
    inject_error(netlist, "table_bit", seed=seed)
    kernel.ensure_current()
    assert (kernel.compile_count, kernel.incremental_count) == (1, 1)
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
def test_unrecorded_edits_are_relowered_incrementally(seed):
    """An edit made outside any recorder, here after a recorded one, is
    read from the netlist's edit log: the next use re-lowers both
    incrementally and agrees with the interpreted engine."""
    netlist = _random_design(seed, mapped=True)
    kernel = CompiledKernel(netlist)
    lut = next(i for i in netlist.instances() if i.is_lut and i.inputs)
    with ChangeRecorder(netlist, "retable"):
        netlist.set_params(lut, {"table": lut.params["table"] ^ 1})
    inject_error(netlist, "output_invert", seed=seed)
    _assert_equivalent(netlist, kernel, seed)
    assert kernel.compile_count == 1
    assert kernel.incremental_count == 1


def _window(netlist, seed, n_cycles=6, n_patterns=32):
    """One stimulus window: every runner sharing a record steps it."""
    rng = make_rng(seed, "cone-stim")
    names = sorted(_input_names(netlist))
    return [
        {n: rng.getrandbits(n_patterns) for n in names}
        for _ in range(n_cycles)
    ]


def _replay_matches(netlist, runner, ports, stimulus, n_patterns=32):
    """Each port's word on every cycle equals the interpreted replay."""
    full = replay_outputs(netlist, stimulus, n_patterns, engine="interpreted")
    runner.reset(n_patterns)
    for inputs, out_full in zip(stimulus, full):
        out_slice = runner.step(inputs, n_patterns)
        for port in ports:
            assert out_slice[port] == out_full[port]


def _observed_cone_luts(netlist, watch):
    cone = netlist.fanin_cone([netlist.net(watch).driver], stop_at_ffs=False)
    return sorted(
        name for name in cone if netlist.instance(name).is_lut
    )


@given(seed=st.integers(0, 5_000))
@settings(max_examples=10, deadline=None)
def test_cone_runner_matches_full_replay(seed):
    """Cone-sliced probe runners sharing one round record reproduce
    full-replay port words through a sequence of observation points: a
    single net, a 3-net parity point inside the recorded cone (its
    slice is the parity LUT alone) and a sticky point on another output
    (a new DFF, so the slice steps unrecorded flip-flops)."""
    netlist = _random_design(seed, mapped=True)
    inject_error(netlist, "table_bit", seed=seed)
    kernel = CompiledKernel(netlist)
    stimulus = _window(netlist, seed)
    record = SlotRecord(len(stimulus))
    first, other = (po.inputs[0].name for po in netlist.primary_outputs()[:2])
    inside = _observed_cone_luts(netlist, first)
    assume(len(inside) >= 3)
    inside = [netlist.instance(name).output.name for name in inside[:3]]
    points = (
        ("cr", [first], False),
        ("crp", inside, False),
        ("crs", [other], True),
    )
    for name, nets, sticky in points:
        _, ports = add_observation_point(netlist, nets, name, sticky=sticky)
        before = dict(record.words)
        runner = kernel.cone_runner(tuple(ports), record)
        assert runner is not None
        _replay_matches(netlist, runner, ports, stimulus)
        # additive edits keep every recorded word; the runner adds its own
        assert before.items() <= record.words.items()
        assert len(record.words) > len(before)
        if name == "crp":
            assert len(runner._tape) == 1 and not runner._ffs
        if name == "crs":
            assert "obs_crs_ff" in {ff[0] for ff in runner._ffs}
    assert kernel.compile_count == 1


@given(
    seed=st.integers(0, 5_000),
    edit=st.sampled_from(("full", "recorded", "unrecorded")),
)
@settings(max_examples=10, deadline=None)
def test_stale_record_is_emptied(seed, edit):
    """A full recompile, or an edit that changes an instance (recorded
    or not), between probes empties the round record, and the next slice
    still matches full replay.  The edit complements the table of the
    LUT driving the observed net, so a kept record would serve inverted
    words."""
    netlist = _random_design(seed, mapped=True)
    kernel = CompiledKernel(netlist)
    stimulus = _window(netlist, seed)
    record = SlotRecord(len(stimulus))
    watch = netlist.primary_outputs()[0].inputs[0].name
    driver = netlist.net(watch).driver
    assume(driver.is_lut)
    _, ports = add_observation_point(netlist, [watch], "st0", False)
    runner = kernel.cone_runner(tuple(ports), record)
    _replay_matches(netlist, runner, ports, stimulus)
    assert record.words
    generation = kernel.generation

    full_table = (1 << (1 << len(driver.inputs))) - 1
    flipped = {**driver.params, "table": driver.params["table"] ^ full_table}
    if edit == "recorded":
        with ChangeRecorder(netlist, "flip"):
            netlist.set_params(driver, flipped)
    else:
        netlist.set_params(driver, flipped)
    if edit == "full":
        kernel._compile_full()
    runner = kernel.cone_runner(tuple(ports), record)
    assert kernel.compile_count == (2 if edit == "full" else 1)
    assert kernel.generation != generation
    assert not record.words
    _replay_matches(netlist, runner, ports, stimulus)
    assert record.words


def test_record_publishes_whole_windows_only():
    """A runner publishes once it has stepped the record's whole window,
    never earlier, and cannot step past it; a later runner on the same
    ports then reads every word from the record."""
    netlist = _random_design(7, mapped=True)
    kernel = CompiledKernel(netlist)
    stimulus = _window(netlist, 7)
    record = SlotRecord(len(stimulus))
    watch = netlist.primary_outputs()[0].inputs[0].name
    _, ports = add_observation_point(netlist, [watch], "pw", False)
    runner = kernel.cone_runner(tuple(ports), record)
    assert runner._tape
    runner.reset(32)
    for inputs in stimulus[:-1]:
        runner.step(inputs, 32)
    assert not record.words
    # a reset drops the partial window: it takes a whole one to publish
    _replay_matches(netlist, runner, ports, stimulus)
    assert record.words
    with pytest.raises(NetlistError, match="past the recorded window"):
        runner.step(stimulus[0], 32)
    again = kernel.cone_runner(tuple(ports), record)
    assert not again._tape and not again._ffs
    _replay_matches(netlist, again, ports, stimulus)


@given(seed=st.integers(0, 5_000))
@settings(max_examples=8, deadline=None)
def test_replay_engines_agree_on_gate_netlists(seed):
    netlist = _random_design(seed, mapped=False)
    rng = make_rng(seed, "seq")
    names = _input_names(netlist)
    stimulus = [{n: rng.getrandbits(32) for n in names} for _ in range(4)]
    replays = [
        replay_outputs(netlist, stimulus, 32, engine=e) for e in ALL_ENGINES
    ]
    assert replays[0] == replays[1]


@given(seed=st.integers(0, 5_000))
@settings(max_examples=10, deadline=None)
def test_additive_edit_keeps_the_tape(seed):
    """An observation point only adds cells, so the incremental edit
    keeps every existing tape entry (the same objects, in order) and the
    generation.  A rewire (control point) or a removal renews the
    generation and stays bit-exact against the interpreted engine."""
    from repro.debug.instrument import remove_observation_points

    netlist = _random_design(seed, mapped=True)
    kernel = CompiledKernel(netlist)
    tape, names = list(kernel._tape), list(kernel._instr_names)
    generation = kernel.generation
    watch = [po.inputs[0].name for po in netlist.primary_outputs()[:3]]
    changes, _ = add_observation_point(netlist, watch, "add", sticky=True)
    kernel.ensure_current()
    assert kernel.generation == generation
    assert all(a is b for a, b in zip(kernel._tape, tape))
    assert kernel._instr_names[: len(names)] == names
    assert set(kernel._instr_names[len(names):]) <= changes.new_instances
    _assert_equivalent(netlist, kernel, seed)

    target = next(
        i.output.name
        for i in netlist.instances()
        if i.is_lut and i.output.sinks and not i.name.startswith("obs_")
    )
    add_control_point(netlist, target, "rw")
    kernel.ensure_current()
    assert kernel.generation != generation
    _assert_equivalent(netlist, kernel, seed + 1)

    generation = kernel.generation
    remove_observation_points(netlist, ["add"])
    kernel.ensure_current()
    assert kernel.generation != generation
    assert not any(name.startswith("obs_add_") for name in kernel._instr_names)
    _assert_equivalent(netlist, kernel, seed + 2)
    assert kernel.compile_count == 1
    assert kernel.incremental_count == 3


# ----------------------------------------------------------------------
# LUT micro-kernels
# ----------------------------------------------------------------------


def _design_lut4_tables():
    tables = set()
    for name in ("9sym", "s9234", "des", "mips"):
        for inst in build_design(name).mapped.instances():
            if inst.kind == CellKind.LUT and len(inst.inputs) == 4:
                tables.add(inst.params["table"])
    return sorted(tables)


def _assert_lut_kernel(k, table, rng):
    """The generated kernel equals ``eval_lut`` on random words, also
    past one 64-bit word, reading its operands through the slot tuple."""
    fn = _build_fn(OP_LUT, k, table)
    for n_patterns in (1, 64, 65):
        mask = (1 << n_patterns) - 1
        words = [rng.getrandbits(n_patterns) for _ in range(k)]
        slots = tuple(range(k - 1, -1, -1))
        got = fn(words[::-1], slots, mask)
        assert got == eval_lut(table, words, mask), (k, hex(table), n_patterns)


def _sop_source(k: int, table: int) -> str:
    """The minterm sum-of-products evaluator of a k-input LUT table.

    Binds ``nx{j} = ~x{j} & m`` in the preamble when a term needs it;
    picks the sparser of the ON-set and complemented OFF-set forms.
    """
    size = 1 << k
    full = (1 << size) - 1
    table &= full
    loads = [f"x{j} = v[s[{j}]]" for j in range(k)]
    if table == 0:
        return _function(loads, "0")
    if table == full:
        return _function(loads, "m")
    ones = [mt for mt in range(size) if (table >> mt) & 1]
    invert = len(ones) > size // 2
    if invert:
        ones = [mt for mt in range(size) if not (table >> mt) & 1]
    terms = []
    for mt in ones:
        lits = [
            f"x{j}" if (mt >> j) & 1 else f"nx{j}" for j in range(k)
        ]
        terms.append("(" + " & ".join(lits) + ")")
    body = " | ".join(terms)
    if invert:
        body = f"~({body}) & m"
    if "nx" in body:
        loads += [f"nx{j} = ~x{j} & m" for j in range(k)]
    return _function(loads, body)


def _op_count(source):
    """Operators one call of a generated evaluator executes: each of
    ``&``, ``|``, ``^``, ``~`` is one character and one AST node."""
    return sum(source.count(op) for op in "&|^~")


def _ast_ops(source):
    return sum(
        isinstance(node, (ast.BinOp, ast.UnaryOp))
        for node in ast.walk(ast.parse(source))
    )


def test_lut_kernels_match_the_minterm_reference():
    """Every table with k <= 3, every 4-input table of 9sym, s9234, des
    and mips, and 1024 seeded other 4-input tables."""
    design = _design_lut4_tables()
    assert len(design) > 100
    rng = make_rng(0, "lut-sample")
    sample = set()
    while len(sample) < 1024:
        table = rng.getrandbits(16)
        if table not in design:
            sample.add(table)
    tables = [(k, t) for k in range(4) for t in range(1 << (1 << k))]
    tables += [(4, t) for t in design + sorted(sample)]
    for k, table in tables:
        _assert_lut_kernel(k, table, rng)
        kernel = _gen_source(OP_LUT, k, table)
        assert _ast_ops(kernel) == _op_count(kernel)
        assert _ast_ops(kernel) <= _ast_ops(_sop_source(k, table))


def test_decomposition_shrinks_the_mux_and_xor_tables():
    mux = _gen_source(OP_LUT, 3, 0xE4)
    assert mux.endswith("return (x1 & ~x0) | (x2 & x0)")
    des = _gen_source(OP_LUT, 4, 22170)
    assert des.endswith("return x0 ^ ((x2 & ~x1) | (x3 & x1))")
    # a table that ignores an input does not load it
    assert "s[1]" not in _gen_source(OP_LUT, 2, 0b0101)
    # a NAND table is the complement of its complement's decomposition
    nand = _gen_source(OP_LUT, 3, 127)
    assert nand.endswith("return ~(x0 & (x1 & x2)) & m")


def test_a_wrong_lut_kernel_is_refused(monkeypatch):
    from repro.netlist import compiled

    monkeypatch.setattr(
        compiled, "_lut_source", lambda k, table: compiled._function([], "m")
    )
    with pytest.raises(NetlistError, match="LUT table 0x8"):
        _build_fn(OP_LUT, 2, 0b1000)


@pytest.mark.slow
@pytest.mark.skipif(
    not os.environ.get("REPRO_SLOW"),
    reason="all 65,536 4-input tables; set REPRO_SLOW=1",
)
def test_every_4_input_lut_kernel():
    rng = make_rng(1, "lut-sweep")
    for table in range(1 << 16):
        _assert_lut_kernel(4, table, rng)
        kernel = _gen_source(OP_LUT, 4, table)
        assert _op_count(kernel) <= _op_count(_sop_source(4, table))

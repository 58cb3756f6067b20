"""Compiled-vs-interpreted engine equivalence (property-based).

The compiled instruction-tape kernel must be bit-exact against the
interpreted reference on outputs, every driven net's word and
next-FF-state — for randomized designs, across error kinds and stimulus
seeds, before and after ECO edits (error injection, observation-point
insertion, control points, retables, retired observation points,
correction), recorded in a changeset or not, which the kernel re-lowers
incrementally from the netlist's edit log.  A trace of a run from reset
must give the interpreted engine's words on every driven net and cycle;
it stays current across additive edits only (a probe), and a retable,
a removal or a full compile makes it stale.  The golden trace's outputs
and detection on an unmodified layout must equal a plain replay, with
the DUT trace equal to the golden one.  Every LUT micro-kernel must
equal the minterm reference ``eval_lut`` with no more operators than
the minterm sum-of-products (:func:`_sop_source`, kept here as the
reference).
"""

import ast
import os

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.arch import pick_device
from repro.debug import ERROR_KINDS, apply_correction, inject_error
from repro.debug.detect import GoldenTrace, detect_on_layout
from repro.debug.instrument import (
    add_control_point,
    add_observation_point,
    remove_observation_points,
)
from repro.errors import DebugFlowError, NetlistError
from repro.generators import build_design
from repro.generators.random_logic import random_sequential_netlist
from repro.netlist import (
    CombinationalSimulator,
    CompiledKernel,
    initial_state,
    kernel_for,
)
from repro.netlist.cells import CellKind, eval_lut
from repro.netlist.compiled import OP_LUT, _build_fn, _function, _gen_source
from repro.netlist.simulate import Run, record, replay_outputs
from repro.pnr import EFFORT_PRESETS, full_place_and_route
from repro.rng import make_rng
from repro.synth import map_to_luts, pack_netlist

ALL_ENGINES = ("interpreted", "compiled")


def _random_design(seed: int, mapped: bool):
    netlist = random_sequential_netlist(
        f"eq{seed}", n_inputs=7, n_outputs=5, n_ffs=6, n_gates=40, seed=seed
    )
    return map_to_luts(netlist) if mapped else netlist


def _input_names(netlist):
    return {pi.name.split(":", 1)[-1] for pi in netlist.primary_inputs()}


def _driven_words(view, netlist, row):
    """Every driven net's word in one row, by net name."""
    return {
        net.name: row[view.slots[net.name]]
        for net in netlist.nets() if net.driver is not None
    }


def _window(netlist, seed, n_cycles=6, n_patterns=32):
    """One stimulus window over the netlist's input ports."""
    rng = make_rng(seed, "cone-stim")
    names = sorted(_input_names(netlist))
    return [
        {n: rng.getrandbits(n_patterns) for n in names}
        for _ in range(n_cycles)
    ]


def _traces_agree(netlist, stimulus, n_patterns=32):
    """A compiled trace equals an interpreted one on the outputs and on
    every driven net and cycle; returns the compiled trace."""
    compiled = record(Run(netlist, "compiled"), stimulus, n_patterns)
    interpreted = record(Run(netlist, "interpreted"), stimulus, n_patterns)
    assert compiled.outputs == interpreted.outputs
    for net in netlist.nets():
        if net.driver is not None:
            words = interpreted.words(net.name)
            assert compiled.words(net.name) == words, net.name
    return compiled


def _assert_equivalent(netlist, kernel, seed, n_patterns=64, n_cycles=3):
    """Outputs, driven-net words and FF next-state agree for a few
    cycles."""
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
        assert _driven_words(
            interp, netlist, interp.row(inputs, n_patterns, state)
        ) == _driven_words(
            kernel, netlist, kernel.row(inputs, n_patterns, state)
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
    golden = GoldenTrace(netlist, stim, 48, "interpreted")
    for engine, replay in zip(ALL_ENGINES, replays):
        trace = GoldenTrace(netlist, stim, 48, engine)
        assert trace.outputs == replay
        mismatches, dut = detect_on_layout(layout, trace)
        assert mismatches == []
        assert dut.outputs == replay
        # the DUT trace holds every driven net's words, as the golden
        # model computes them on the interpreted reference
        for net in netlist.nets():
            if net.driver is not None:
                assert dut.words(net.name) == golden.words(net.name)


#: debugging edits and whether each only adds cells (keeps a trace)
_EDITS = {
    "observe": True, "sticky": True,
    "control": False, "retable": False, "retire": False,
}


def _edit(netlist, edit, step, rng, live):
    """Apply one debugging edit; a retire with nothing live observes."""
    if edit == "retire" and live:
        remove_observation_points(netlist, live)
        live.clear()
        return
    luts = sorted(
        i.name for i in netlist.instances()
        if i.is_lut and i.output.sinks and not i.name.startswith("obs_")
    )
    target = netlist.instance(rng.choice(luts))
    if edit == "control":
        add_control_point(netlist, target.output.name, f"c{step}")
    elif edit == "retable":
        netlist.set_params(
            target, {**target.params, "table": target.params["table"] ^ 1}
        )
    else:
        add_observation_point(
            netlist, [target.output.name], f"o{step}",
            sticky=edit == "sticky",
        )
        live.append(f"o{step}")


@given(
    seed=st.integers(0, 5_000),
    kind=st.sampled_from(ERROR_KINDS),
    edits=st.lists(st.sampled_from(sorted(_EDITS)), min_size=1, max_size=5),
)
@settings(max_examples=15, deadline=None)
def test_engines_agree_across_eco_edits(seed, kind, edits):
    """Inject, a random sequence of additive (observation points) and
    non-additive (control point, retable, retired observation points)
    edits, then correct; each edit followed by a use of the kernel,
    which re-lowers it incrementally.  After every edit a compiled trace
    gives the interpreted engine's words on every driven net and cycle,
    and the trace recorded before the edit is still current, with the
    same words on every net its rows hold, exactly when the edit was
    additive."""
    netlist = _random_design(seed, mapped=True)
    kernel = kernel_for(netlist)
    _assert_equivalent(netlist, kernel, seed)

    try:
        error = inject_error(netlist, kind, seed=seed)
    except DebugFlowError:
        assume(False)  # e.g. only symmetric LUTs for input_swap
    _assert_equivalent(netlist, kernel, seed + 1)
    stimulus = _window(netlist, seed)
    before = _traces_agree(netlist, stimulus)

    rng = make_rng(seed, "eco-edits")
    live: list[str] = []
    for step, edit in enumerate(edits):
        additive = _EDITS[edit] or (edit == "retire" and not live)
        _edit(netlist, edit, step, rng, live)
        assert before.current(kernel) == additive, edit
        after = _traces_agree(netlist, stimulus)
        if additive:
            width = len(before.rows[0])
            for net, slot in before.slots.items():
                if slot < width:
                    assert before.words(net) == after.words(net), net
        _assert_equivalent(netlist, kernel, seed + 2 + step)
        before = after

    apply_correction(netlist, error)
    _assert_equivalent(netlist, kernel, seed + 9)
    _traces_agree(netlist, stimulus)
    # every edit above must have gone through the incremental path
    assert kernel.compile_count == 1


@given(seed=st.integers(0, 5_000))
@settings(max_examples=10, deadline=None)
def test_trace_matches_full_replay_across_observation_points(seed):
    """A compiled trace reproduces full-replay port words through a
    sequence of observation points: a single net, a 3-net parity point
    inside the first one's fan-in cone and a sticky point on another
    output (a new DFF).  Each point is additive, so the trace recorded
    before it stays current with every word it holds unchanged."""
    netlist = _random_design(seed, mapped=True)
    inject_error(netlist, "table_bit", seed=seed)
    kernel = kernel_for(netlist)
    stimulus = _window(netlist, seed)
    first, other = (po.inputs[0].name for po in netlist.primary_outputs()[:2])
    cone = netlist.fanin_cone([netlist.net(first).driver], stop_at_ffs=False)
    inside = sorted(name for name in cone if netlist.instance(name).is_lut)
    assume(len(inside) >= 3)
    inside = [netlist.instance(name).output.name for name in inside[:3]]
    points = (
        ("cr", [first], False),
        ("crp", inside, False),
        ("crs", [other], True),
    )
    before = _traces_agree(netlist, stimulus)
    for name, nets, sticky in points:
        ports = add_observation_point(netlist, nets, name, sticky=sticky)
        assert before.current(kernel), name
        after = _traces_agree(netlist, stimulus)
        full = replay_outputs(netlist, stimulus, 32, engine="interpreted")
        for out_trace, out_full in zip(after.outputs, full):
            for port in ports:
                assert out_trace[port] == out_full[port], port
        width = len(before.rows[0])
        # a single watched net is its own parity: no new cell to record
        assert (len(after.rows[0]) > width) == (name != "cr"), name
        for net, slot in before.slots.items():
            if slot < width:
                assert before.words(net) == after.words(net), net
        before = after
    assert after.words("obs_crs_flag_q") is not None
    assert kernel.compile_count == 1


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
    assert _driven_words(
        kernel, netlist, kernel.row(inputs, 64, state)
    ) == _driven_words(fresh, netlist, fresh.row(inputs, 64, state))
    assert kernel.next_state(inputs, 64, state) == fresh.next_state(
        inputs, 64, state
    )


@given(seed=st.integers(0, 5_000))
@settings(max_examples=8, deadline=None)
def test_unrecorded_edits_are_relowered_incrementally(seed):
    """Bare edits between two uses, here a retable and then an injected
    error, are read from the netlist's edit log: the next use re-lowers
    both in one incremental pass and agrees with the interpreted
    engine."""
    netlist = _random_design(seed, mapped=True)
    kernel = CompiledKernel(netlist)
    lut = next(i for i in netlist.instances() if i.is_lut and i.inputs)
    netlist.set_params(lut, {"table": lut.params["table"] ^ 1})
    inject_error(netlist, "output_invert", seed=seed)
    _assert_equivalent(netlist, kernel, seed)
    assert kernel.compile_count == 1
    assert kernel.incremental_count == 1


@given(
    seed=st.integers(0, 5_000),
    edit=st.sampled_from(("probe", "retable", "removal", "full")),
)
@settings(max_examples=12, deadline=None)
def test_trace_stays_current_across_additions_only(seed, edit):
    """An additive probe keeps a trace current and its words exact; a
    retable, a removal or a full compile renews the kernel generation,
    so the trace is stale, and recording again matches the interpreted
    engine.  The retable complements the table of the LUT driving the
    observed net, so a kept trace would serve stale words: on the first
    cycle, before any flip-flop carries the change, their inverse."""
    netlist = _random_design(seed, mapped=True)
    kernel = kernel_for(netlist)
    stimulus = _window(netlist, seed)
    watch = netlist.primary_outputs()[0].inputs[0].name
    driver = netlist.net(watch).driver
    assume(driver.is_lut)
    add_observation_point(netlist, [watch], "st0", sticky=False)
    trace = _traces_agree(netlist, stimulus)
    generation = kernel.generation

    if edit == "probe":
        add_observation_point(netlist, [watch], "st1", sticky=True)
    elif edit == "retable":
        full_table = (1 << (1 << len(driver.inputs))) - 1
        netlist.set_params(
            driver, {**driver.params,
                     "table": driver.params["table"] ^ full_table}
        )
    elif edit == "removal":
        remove_observation_points(netlist, ["st0"])
    else:
        kernel._compile_full()
    assert trace.current(kernel) == (edit == "probe")
    assert (kernel.generation == generation) == (edit == "probe")
    assert kernel.compile_count == (2 if edit == "full" else 1)
    again = _traces_agree(netlist, stimulus)
    if edit == "probe":
        assert again.words(watch) == trace.words(watch)
    elif edit == "retable":
        mask = (1 << 32) - 1
        assert again.words(watch)[0] == trace.words(watch)[0] ^ mask


def test_trace_holds_only_its_recorded_slots():
    """A net created after recording has a slot past the trace's rows:
    the trace gives no words for it (a probe verdict records again),
    while every net it holds keeps its words and slot."""
    netlist = _random_design(7, mapped=True)
    kernel = kernel_for(netlist)
    stimulus = _window(netlist, 7)
    trace = _traces_agree(netlist, stimulus)
    width = len(trace.rows[0])
    held = {net: trace.words(net) for net in list(trace.slots)}
    watch = [po.inputs[0].name for po in netlist.primary_outputs()[:3]]
    add_observation_point(netlist, watch, "pw", sticky=True)
    assert trace.current(kernel)
    assert trace.words("obs_pw_flag_q") is None
    assert kernel.slots["obs_pw_flag_q"] >= width
    again = _traces_agree(netlist, stimulus)
    assert len(again.rows[0]) > width
    assert all(again.words(net) == words for net, words in held.items())
    assert again.words("obs_pw_flag_q") is not None


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
    rev = netlist.revision
    add_observation_point(netlist, watch, "add", sticky=True)
    _, added, _ = netlist.edits_since(rev)
    kernel.ensure_current()
    assert kernel.generation == generation
    assert all(a is b for a, b in zip(kernel._tape, tape))
    assert kernel._instr_names[: len(names)] == names
    assert set(kernel._instr_names[len(names):]) <= added
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

"""Property-based tests over the core invariants (hypothesis)."""

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.debug import ERROR_KINDS, apply_correction, inject_error
from repro.errors import DebugFlowError, NetlistError
from repro.generators.random_logic import (
    random_combinational_netlist,
    random_sequential_netlist,
)
from repro.netlist import check_netlist
from repro.netlist.blif import read_blif, write_blif
from repro.netlist.simulate import replay_outputs
from repro.rng import make_rng
from repro.synth import map_to_luts, pack_netlist
from tests.conftest import comb_outputs, netlist_signature, reference_copy


@given(seed=st.integers(0, 10_000))
@settings(max_examples=15, deadline=None)
def test_random_netlists_always_validate(seed):
    n = random_sequential_netlist(
        f"p{seed}", n_inputs=6, n_outputs=4, n_ffs=5, n_gates=30, seed=seed
    )
    assert check_netlist(n) == []


@given(seed=st.integers(0, 10_000))
@settings(max_examples=10, deadline=None)
def test_blif_roundtrip_property(seed):
    """write_blif . read_blif preserves combinational behaviour."""
    n = random_combinational_netlist(
        f"b{seed}", n_inputs=6, n_outputs=4, n_gates=25, seed=seed
    )
    parsed = read_blif(write_blif(n))
    rng = make_rng(seed, "stim")
    ins = {f"in{i}": rng.getrandbits(32) for i in range(6)}
    assert comb_outputs(n, ins, 32) == comb_outputs(parsed, ins, 32)


@given(seed=st.integers(0, 10_000))
@settings(max_examples=10, deadline=None)
def test_mapping_then_packing_preserves_instances(seed):
    n = random_sequential_netlist(
        f"m{seed}", n_inputs=6, n_outputs=4, n_ffs=4, n_gates=25, seed=seed
    )
    mapped = map_to_luts(n)
    packed = pack_netlist(mapped)
    placed_instances = {
        name
        for block in packed.blocks
        for name in block.instances
    }
    expected = {i.name for i in mapped.instances()}
    assert placed_instances == expected


@given(
    kind=st.sampled_from(ERROR_KINDS),
    seed=st.integers(0, 1000),
)
@settings(max_examples=15, deadline=None)
def test_inject_then_correct_is_identity(kind, seed):
    """Correction is the exact inverse of injection, functionally."""
    golden = map_to_luts(
        random_sequential_netlist(
            f"e{seed}", n_inputs=5, n_outputs=4, n_ffs=3, n_gates=24,
            seed=seed,
        )
    )
    dut = golden.copy()
    try:
        record = inject_error(dut, kind, seed=seed)
    except DebugFlowError:
        # e.g. a netlist with only symmetric LUTs cannot host input_swap
        assume(False)
    apply_correction(dut, record)
    check_netlist(dut)
    rng = make_rng(seed, "verify")
    stimulus = [
        {f"in{i}": rng.getrandbits(32) for i in range(5)} for _ in range(3)
    ]
    assert replay_outputs(dut, stimulus, 32) == replay_outputs(
        golden, stimulus, 32
    )


@given(seed=st.integers(0, 500), n_tiles=st.integers(2, 8))
@settings(max_examples=8, deadline=None)
def test_tile_partition_conserves_blocks(seed, n_tiles):
    from repro.arch import pick_device
    from repro.pnr import EFFORT_PRESETS, full_place_and_route
    from repro.tiling import TilingOptions, assign_blocks_to_tiles, plan_tile_grid

    mapped = map_to_luts(
        random_sequential_netlist(
            f"t{seed}", n_inputs=5, n_outputs=4, n_ffs=4, n_gates=30,
            seed=seed,
        )
    )
    packed = pack_netlist(mapped)
    device = pick_device(
        packed.n_clbs, area_overhead=0.8, min_io=len(packed.io_blocks())
    )
    layout = full_place_and_route(
        packed, device, seed=seed, preset=EFFORT_PRESETS["fast"],
        strict_routing=False,
    )
    rects = plan_tile_grid(
        packed.n_clbs, device,
        TilingOptions(n_tiles=n_tiles, area_overhead=0.3),
    )
    tiles = assign_blocks_to_tiles(packed, layout.placement, rects)
    assigned = sorted(b for t in tiles for b in t.blocks)
    assert assigned == sorted(b.index for b in packed.clb_blocks())
    assert all(t.used <= t.capacity for t in tiles)


def _snapshot(netlist):
    """Every instance's (kind, input nets, params): the reference the
    edit log's fold is checked against (the old change recorder's)."""
    return {
        inst.name: (
            inst.kind,
            tuple(n.name for n in inst.inputs),
            tuple(sorted(inst.params.items())),
        )
        for inst in netlist.instances()
    }


_EDIT_OPS = (
    "add_lut", "add_dff", "add_output", "add_input", "remove", "rename",
    "set_input", "set_params", "change_kind", "transfer_sinks", "add_net",
    "prune",
)


def _random_edit(netlist, data, gone, touched):
    """Apply one drawn mutation; add every name it logs to ``touched``.

    ``gone`` holds removed names, so an add or a rename may bring one
    back (remove-then-re-add).  A ``set_input`` to the net already
    there and a ``transfer_sinks`` that moves nothing log nothing, so
    they touch nothing.
    """
    from repro.netlist.cells import CellKind

    insts = sorted(netlist.instances(), key=lambda i: i.name)
    nets = sorted(netlist.nets(), key=lambda n: n.name)
    op = data.draw(st.sampled_from(_EDIT_OPS))

    def new_name():
        pool = sorted(n for n in gone if not netlist.has_instance(n))
        if pool and data.draw(st.booleans()):
            return data.draw(st.sampled_from(pool))
        return netlist.fresh_name("e")

    def some(items):
        return data.draw(st.sampled_from(items))

    if op in ("add_lut", "add_dff", "add_output"):
        name = new_name()
        if op == "add_lut":
            ins = [some(nets) for _ in range(data.draw(st.integers(1, 3)))]
            table = data.draw(st.integers(0, (1 << (1 << len(ins))) - 1))
            netlist.add_lut(ins, table, name=name)
        elif op == "add_dff":
            netlist.add_dff(some(nets), name=name)
        else:
            netlist.add_instance(CellKind.OUTPUT, [some(nets)], name=name)
        touched.add(name)
    elif op == "add_input":
        port = netlist.fresh_name("pin")
        netlist.add_input(port)
        touched.add(f"pi:{port}")
    elif op == "remove" and insts:
        inst = some(insts)
        netlist.remove_instance(inst)
        gone.add(inst.name)
        touched.add(inst.name)
    elif op == "rename" and insts:
        inst = some(insts)
        old, name = inst.name, new_name()
        netlist.rename_instance(inst, name)
        gone.add(old)
        touched.update((old, name))
    elif op == "set_input":
        wired = [i for i in insts if i.inputs]
        if wired:
            inst = some(wired)
            pin = data.draw(st.integers(0, len(inst.inputs) - 1))
            net = some(nets)
            if inst.inputs[pin] is not net:
                touched.add(inst.name)
            netlist.set_input(inst, pin, net)
    elif op == "set_params" and insts:
        inst = some(insts)
        keep = data.draw(st.booleans())
        params = dict(inst.params) if keep else {"tag": data.draw(
            st.integers(0, 3))}
        netlist.set_params(inst, params)
        touched.add(inst.name)
    elif op == "change_kind":
        luts = [
            i for i in insts
            if i.kind is CellKind.LUT and 1 <= len(i.inputs) <= 4
        ]
        if luts:
            inst = some(luts)
            # the same kind and table: the call still counts
            same = data.draw(st.booleans())
            table = inst.params.get("table", 0) if same else data.draw(
                st.integers(0, (1 << (1 << len(inst.inputs))) - 1))
            netlist.change_kind(inst, CellKind.LUT, {"table": table})
            touched.add(inst.name)
    elif op == "transfer_sinks" and len(nets) > 1:
        source = some(nets)
        target = some([n for n in nets if n is not source])
        moved = {inst.name for inst, _ in source.sinks}
        if netlist.transfer_sinks(source, target):
            touched.update(moved)
    elif op == "add_net":
        netlist.add_net()
    elif op == "prune":
        netlist.prune_dangling()


@given(data=st.data(), seed=st.integers(0, 1000))
@settings(max_examples=60, deadline=None)
def test_edit_log_fold_matches_the_snapshot_diff(data, seed):
    """``Netlist.edits_since`` equals a whole-netlist snapshot diff,
    plus the no-op rule: an instance present at both ends that any
    logged edit touched is changed, even when the edit wrote the value
    already there or a later edit restored it (removed and re-added
    under the same name, renamed away and back)."""
    netlist = map_to_luts(random_sequential_netlist(
        f"log{seed}", n_inputs=4, n_outputs=3, n_ffs=2, n_gates=10,
        seed=seed,
    ))
    gone: set[str] = set()
    for _ in range(data.draw(st.integers(0, 4))):
        _random_edit(netlist, data, gone, set())
    before = _snapshot(netlist)
    revision = netlist.revision
    touched: set[str] = set()
    for _ in range(data.draw(st.integers(1, 25))):
        _random_edit(netlist, data, gone, touched)
    _assert_fold_matches(netlist, revision, before, touched)


def _assert_fold_matches(netlist, revision, before, touched):
    """``edits_since(revision)`` equals the snapshot diff from
    ``before`` plus every touched name present at both ends."""
    after = _snapshot(netlist)
    changed, new, removed = netlist.edits_since(revision)
    both = before.keys() & after.keys()
    diff = {name for name in both if before[name] != after[name]}
    assert diff <= touched
    assert changed == diff | (touched & both)
    assert new == after.keys() - before.keys()
    assert removed == before.keys() - after.keys()
    assert netlist.edits_since(netlist.revision) == (set(), set(), set())


@given(data=st.data(), seed=st.integers(0, 1000))
@settings(max_examples=40, deadline=None)
def test_copy_equals_the_reference_copy_after_random_edits(data, seed):
    """``Netlist.copy`` equals the ``add_instance``-built reference copy
    after random edits (sinks reordered by ``transfer_sinks`` and
    ``set_input``, renames, removals), and the clone's log starts at
    the copy: an earlier revision raises, and the fold over the clone's
    own edits still equals the snapshot diff."""
    netlist = map_to_luts(random_sequential_netlist(
        f"copy{seed}", n_inputs=4, n_outputs=3, n_ffs=2, n_gates=10,
        seed=seed,
    ))
    gone: set[str] = set()
    for _ in range(data.draw(st.integers(0, 25))):
        _random_edit(netlist, data, gone, set())
    clone = netlist.copy()
    base = clone.revision
    assert netlist_signature(clone) == netlist_signature(
        reference_copy(netlist), base
    )
    with pytest.raises(NetlistError):
        clone.edits_since(base - 1)
    before = _snapshot(clone)
    touched: set[str] = set()
    for _ in range(data.draw(st.integers(1, 10))):
        _random_edit(clone, data, gone, touched)
    _assert_fold_matches(clone, base, before, touched)

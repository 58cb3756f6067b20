"""CLB packing: BLE formation, pairing, block nets, ECO extension."""

import pytest

from repro.errors import SynthesisError
from repro.netlist import CellKind
from repro.synth import map_to_luts, pack_netlist
from repro.synth.pack import extend_packing
from tests.conftest import make_adder_netlist, refresh_block_nets


def packed_adder(width=4, registered=True):
    netlist = make_adder_netlist(width, registered=registered)
    mapped = map_to_luts(netlist)
    return mapped, pack_netlist(mapped)


def test_unmapped_netlist_rejected(adder4):
    with pytest.raises(SynthesisError):
        pack_netlist(adder4)


def test_every_logic_instance_has_a_block():
    mapped, packed = packed_adder()
    for inst in mapped.logic_instances():
        assert inst.name in packed.block_of_instance


def test_clb_capacity_two_bles():
    mapped, packed = packed_adder()
    for clb in packed.clbs:
        assert 1 <= len(clb.bles) <= 2


def test_lut_ff_pairs_merge_into_one_ble():
    mapped, packed = packed_adder(4, registered=True)
    merged = [
        ble for clb in packed.clbs for ble in clb.bles if ble.lut and ble.ff
    ]
    assert merged  # the registered adder has LUT->FF chains


def test_clb_count_near_half_ble_count():
    mapped, packed = packed_adder(8, registered=True)
    n_bles = sum(len(clb.bles) for clb in packed.clbs)
    assert packed.n_clbs == (n_bles + 1) // 2


def test_block_nets_exclude_intra_clb():
    mapped, packed = packed_adder()
    for net in packed.nets.values():
        blocks = {net.driver, *net.sinks}
        assert len(blocks) >= 2


def test_io_blocks_created():
    mapped, packed = packed_adder(4, registered=False)
    assert len([b for b in packed.io_blocks()]) == 8 + 5


def test_blocks_of_instances_ignores_unknown():
    mapped, packed = packed_adder()
    known = mapped.logic_instances()[0].name
    found = packed.blocks_of_instances({known, "not_a_cell"})
    assert len(found) == 1


class TestEcoExtension:
    def test_extend_packing_creates_blocks(self):
        mapped, packed = packed_adder()
        target = mapped.primary_outputs()[0].inputs[0]
        lut = mapped.add_lut([target], 0b01, name="eco_lut")
        before = len(packed.blocks)
        fresh = extend_packing(packed, {"eco_lut"})
        assert len(fresh) == 1
        assert len(packed.blocks) == before + 1
        assert packed.block_of_instance["eco_lut"] in fresh

    def test_extend_packing_merges_new_lut_ff(self):
        mapped, packed = packed_adder()
        src = mapped.primary_outputs()[0].inputs[0]
        lut = mapped.add_lut([src], 0b10, name="eco_lut")
        ff = mapped.add_dff(lut.output, name="eco_ff")
        fresh = extend_packing(packed, {"eco_lut", "eco_ff"})
        assert len(fresh) == 1  # one CLB holds the merged BLE
        block = packed.blocks[next(iter(fresh))]
        assert set(block.instances) == {"eco_lut", "eco_ff"}

    def test_extend_packing_rejects_gates(self):
        mapped, packed = packed_adder()
        pos = mapped.primary_outputs()
        gate = mapped.add_instance(
            CellKind.AND, [pos[0].inputs[0], pos[1].inputs[0]],
            name="bad_gate",
        )
        with pytest.raises(SynthesisError):
            extend_packing(packed, {"bad_gate"})

    def test_refresh_tracks_new_and_changed(self):
        mapped, packed = packed_adder()
        src = mapped.primary_outputs()[0].inputs[0]
        mapped.add_output("probe", src)
        extend_packing(packed, {"po:probe"})
        new_ids, changed_ids, removed_ids = refresh_block_nets(packed)
        # the probed net gained a sink block: changed (or new if it was
        # previously intra-block)
        assert new_ids or changed_ids
        assert not removed_ids

    def test_refresh_preserves_unchanged_indices(self):
        mapped, packed = packed_adder()
        before = dict(packed.nets)
        new_ids, changed_ids, removed_ids = refresh_block_nets(packed)
        assert not new_ids and not changed_ids and not removed_ids
        assert packed.nets == before

    def test_refresh_removes_dead_nets(self):
        mapped, packed = packed_adder(4, registered=False)
        po = next(iter(mapped.primary_outputs()))
        name_before = len(packed.nets)
        mapped.remove_instance(po)
        new_ids, changed_ids, removed_ids = refresh_block_nets(packed)
        assert removed_ids or changed_ids  # the PO's net lost its IOB sink


# ----------------------------------------------------------------------
# incremental block-net refresh (absorb_changes) vs the full walk
# ----------------------------------------------------------------------


def _reference_block_map(nets):
    """Block → net indices, rebuilt from scratch."""
    table = {}
    for idx, net in nets.items():
        for b in (net.driver, *net.sinks):
            table.setdefault(b, set()).add(idx)
    return table


def _absorb_both(packed, twin, monkeypatch):
    """Absorb the netlist's pending edits into ``packed`` through
    ``absorb_changes``, which must not walk every net, and into ``twin``
    through the full walk; return both refresh results."""
    from repro.synth.pack import refresh_touched_nets, retire_instances
    from repro.tiling import manager

    netlist = packed.netlist
    _, new, removed = netlist.edits_since(twin.revision)
    got = []

    def spy_touched(*args):
        got.append(refresh_touched_nets(*args))
        return got[-1]

    def no_full_walk():
        raise AssertionError("absorb_changes walked every net")

    with monkeypatch.context() as patch:
        patch.setattr(manager, "refresh_touched_nets", spy_touched)
        patch.setattr(netlist, "nets", no_full_walk)
        manager.absorb_changes(packed, None)
    retire_instances(twin, removed)
    extend_packing(twin, new)
    (result,) = got
    return result, refresh_block_nets(twin)


def _assert_same_packing(packed, twin):
    assert list(packed.nets.items()) == list(twin.nets.items())
    assert list(packed._net_index_of_name.items()) == list(
        twin._net_index_of_name.items()
    )
    assert packed._next_net_index == twin._next_net_index
    assert packed.block_of_instance == twin.block_of_instance
    assert packed.blocks == twin.blocks
    # blocks are never deleted, so a block whose last net went away
    # keeps an empty entry
    kept = {b: ids for b, ids in packed.nets_of_block().items() if ids}
    assert kept == _reference_block_map(twin.nets)
    assert packed.revision == packed.netlist.revision


def _random_eco(netlist, rng, step, live, pending):
    """One seeded debugging edit; returns its description."""
    from repro.debug.correct import apply_correction
    from repro.debug.errors import inject_error
    from repro.debug.instrument import (
        add_control_point,
        add_observation_point,
        remove_observation_points,
        test_logic_block,
    )
    from repro.errors import DebugFlowError

    driven = sorted(
        n.name for n in netlist.nets()
        if n.driver is not None and not n.driver.is_io
    )
    op = rng.choice(
        ("observe", "observe", "control", "logic", "retire", "retable",
         "inject", "fix")
    )
    if op == "retire" and live:
        names = rng.sample(live, rng.randint(1, len(live)))
        for name in names:
            live.remove(name)
        remove_observation_points(netlist, names + ["never_added"])
        return f"retire {len(names) + 1} observation point(s)"
    if op == "control":
        spliceable = [
            name for name in driven
            if netlist.net(name).sinks and not name.startswith("ctl_")
        ]
        add_control_point(netlist, rng.choice(spliceable), f"c{step}")
        return f"control c{step}"
    if op == "logic":
        n_clbs = rng.randint(1, 2)
        test_logic_block(netlist, n_clbs, rng.choice(driven), f"t{step}")
        return f"test logic t{step} ({n_clbs} CLBs)"
    if op == "retable":
        # a CEGIS-style truth-table repair of one LUT
        lut = netlist.instance(rng.choice(sorted(
            i.name for i in netlist.instances() if i.is_lut
        )))
        table = lut.params["table"] ^ 1
        netlist.set_params(lut, {**lut.params, "table": table})
        return f"retable {lut.name}"
    if op == "inject":
        kind = rng.choice(("wrong_source", "input_swap", "table_bit"))
        try:
            pending.append(inject_error(netlist, kind, seed=step))
        except DebugFlowError:
            pass
        return f"inject {kind}"
    if op == "fix" and pending:
        # the oracle's back-annotated inverse (a retable or a rewire)
        record = pending.pop()
        apply_correction(netlist, record)
        return f"fix {record.kind} @ {record.instance}"
    name = f"p{step}"
    watch = rng.sample(driven, rng.randint(1, 5))
    add_observation_point(
        netlist, watch, name, sticky=rng.random() < 0.5,
        expected_parity=rng.randint(0, 1),
    )
    live.append(name)
    return f"observe {name}"


@pytest.mark.parametrize("design", ["9sym", "s9234"])
def test_incremental_refresh_matches_full_walk(design, monkeypatch):
    """After every commit of a seeded ECO sequence (one or two debugging
    edits between commits), ``absorb_changes`` re-derives only the
    edited nets, never walking every net, and leaves the same block
    nets, indices and block → nets map as the full walk on a twin
    packing, and reports the same (new, changed, removed) sets."""
    from repro.generators import build_design
    from repro.rng import make_rng

    packed = build_design(design).packed
    netlist = packed.netlist
    twin = pack_netlist(netlist)
    rng = make_rng(7, "eco-refresh", design)
    live, pending = [], []
    seen_nonempty = set()
    for step in range(24):
        descriptions = [
            _random_eco(netlist, rng, 2 * step + k, live, pending)
            for k in range(rng.randint(1, 2))
        ]
        got, expected = _absorb_both(packed, twin, monkeypatch)
        assert got == expected, descriptions
        _assert_same_packing(packed, twin)
        seen_nonempty.update(
            label for label, ids in zip(("new", "changed", "removed"), got)
            if ids
        )
    assert seen_nonempty == {"new", "changed", "removed"}


def test_unrecorded_edits_skip_the_full_refresh(monkeypatch):
    """A bare netlist mutation made around an instrument helper — just
    before one or just after it — is read from the netlist's edit log
    like the helper's own edits: the commit absorbs it without the full
    walk and still matches the twin."""
    from repro.debug.instrument import add_observation_point
    from repro.generators import build_design

    packed = build_design("9sym").packed
    netlist = packed.netlist
    twin = pack_netlist(netlist)
    luts = [i for i in netlist.instances() if i.is_lut]
    watch = [luts[0].output.name, luts[1].output.name]

    add_observation_point(netlist, watch, "ok")
    got, expected = _absorb_both(packed, twin, monkeypatch)
    assert got == expected

    # a bare retable before the next observation point
    netlist.set_params(luts[2], {"table": luts[2].params["table"] ^ 1})
    add_observation_point(netlist, watch, "before")
    got, expected = _absorb_both(packed, twin, monkeypatch)
    assert got == expected
    _assert_same_packing(packed, twin)

    # a bare rewire after the observation point
    add_observation_point(netlist, watch, "after")
    lut = luts[3]
    netlist.set_input(lut, 0, netlist.net(watch[0]))
    got, expected = _absorb_both(packed, twin, monkeypatch)
    assert got == expected
    assert got[1], "the rewire moved a block net"
    _assert_same_packing(packed, twin)


def test_kind_swap_under_one_name_is_repacked():
    """An instance removed and re-added under its name as another kind
    reads as changed in the edit log; the commit retires it from its
    LUT role and packs it as a flip-flop (9sym: LUT ``xor$61`` becomes
    a DFF on the same output net)."""
    from repro.generators import build_design
    from repro.tiling.manager import absorb_changes

    packed = build_design("9sym").packed
    netlist = packed.netlist
    lut = netlist.instance("xor$61")
    data, out = lut.inputs[0], lut.output
    netlist.remove_instance(lut)
    netlist.add_dff(data, name="xor$61", output=out)
    absorb_changes(packed, None)
    roles = [
        (ble.lut, ble.ff) for clb in packed.clbs for ble in clb.bles
        if "xor$61" in (ble.lut, ble.ff)
    ]
    assert roles == [(None, "xor$61")]
    block = packed.blocks[packed.block_of_instance["xor$61"]]
    assert "xor$61" in block.instances
    assert packed.revision == netlist.revision

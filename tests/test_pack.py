"""CLB packing: BLE formation, pairing, block nets, ECO extension."""

import pytest

from repro.errors import SynthesisError
from repro.netlist import CellKind
from repro.synth import map_to_luts, pack_netlist
from repro.synth.pack import extend_packing, refresh_block_nets
from tests.conftest import make_adder_netlist


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

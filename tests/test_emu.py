"""Emulator and bitstream model."""

import pytest

from repro.emu import Bitstream, Emulator, frames_for_tiles
from repro.errors import EmulationError
from repro.geometry import Rect
from repro.netlist.simulate import replay_outputs


def test_emulator_matches_golden_model(small_layout):
    emulator = Emulator(small_layout)
    inputs = {
        pi.name.split(":", 1)[-1]: 0b1011
        for pi in small_layout.packed.netlist.primary_inputs()
    }
    golden = replay_outputs(small_layout.packed.netlist, [inputs] * 4, 4)
    emulator.reset(4)
    assert [emulator.step(inputs, 4) for _ in range(4)] == golden


def test_emulator_rejects_incomplete_configuration(small_layout):
    broken = small_layout.copy()
    some_block = broken.packed.clb_blocks()[0].index
    broken.placement.remove(some_block)
    with pytest.raises(EmulationError):
        Emulator(broken)


class TestBitstream:
    def test_frames_deterministic(self, small_layout):
        rect = Rect(0, 0, 3, 3)
        a = Bitstream(small_layout).frame_digest(rect)
        b = Bitstream(small_layout).frame_digest(rect)
        assert a == b

    def test_frames_differ_after_logic_change(self, small_layout):
        rect = small_layout.device.clb_region
        before = Bitstream(small_layout, include_routing=False).frame_digest(rect)
        netlist = small_layout.packed.netlist
        lut = next(
            i for i in netlist.instances()
            if i.kind.value == "LUT" and i.inputs
        )
        old = lut.params["table"]
        try:
            lut.params = {"table": old ^ 1}
            after = Bitstream(
                small_layout, include_routing=False
            ).frame_digest(rect)
        finally:
            lut.params = {"table": old}
        assert before != after

    def test_empty_region_stable(self, small_layout):
        # a region with no placed CLBs hashes the <empty> markers
        rect = Rect(
            small_layout.device.nx - 1, small_layout.device.ny - 1,
            small_layout.device.nx - 1, small_layout.device.ny - 1,
        )
        digest = Bitstream(small_layout).frame_digest(rect)
        assert isinstance(digest, str) and len(digest) == 64

    def test_frames_for_tiles_length(self, small_layout):
        rects = [Rect(0, 0, 2, 2), Rect(3, 0, 5, 2)]
        frames = frames_for_tiles(small_layout, rects)
        assert len(frames) == 2

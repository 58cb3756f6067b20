"""TiledLayout: creation, Figure 3/4 models, changeset commits, lock."""

import pytest

from repro.arch import pick_device
from repro.emu import frames_for_tiles
from repro.errors import TilingError
from repro.netlist.cells import CellKind
from repro.pnr import EFFORT_PRESETS
from repro.synth import map_to_luts, pack_netlist
from repro.tiling import TiledLayout, TilingOptions
from tests.conftest import make_adder_netlist


@pytest.fixture()
def tiled_ctx():
    netlist = make_adder_netlist(10, registered=True)
    mapped = map_to_luts(netlist)
    packed = pack_netlist(mapped)
    device = pick_device(packed.n_clbs, area_overhead=0.6,
                         min_io=len(packed.io_blocks()) + 8)
    tiled = TiledLayout.create(
        packed, device, TilingOptions(n_tiles=4, area_overhead=0.3),
        seed=2, preset=EFFORT_PRESETS["fast"],
    )
    return mapped, packed, tiled


class TestCreation:
    def test_all_blocks_in_tiles(self, tiled_ctx):
        mapped, packed, tiled = tiled_ctx
        assert sum(t.used for t in tiled.tiles) == packed.n_clbs

    def test_placement_respects_tiles(self, tiled_ctx):
        mapped, packed, tiled = tiled_ctx
        for tile in tiled.tiles:
            for b in tile.blocks:
                assert tile.rect.contains(*tiled.layout.placement.site_of(b))

    def test_stats_overhead(self, tiled_ctx):
        mapped, packed, tiled = tiled_ctx
        stats = tiled.stats()
        assert stats.total_used == packed.n_clbs
        assert stats.area_overhead > 0.1

    def test_tile_of_instance(self, tiled_ctx):
        mapped, packed, tiled = tiled_ctx
        lut = next(i for i in mapped.instances() if i.kind is CellKind.LUT)
        assert 0 <= tiled.tile_of_instance(lut.name) < len(tiled.tiles)
        with pytest.raises(TilingError):
            tiled.tile_of_instance("nonexistent")


class TestFigureModels:
    def test_affected_tiles_monotone_in_size(self, tiled_ctx):
        mapped, packed, tiled = tiled_ctx
        counts = [
            len(tiled.affected_tiles_for_logic(k, 0))
            for k in range(0, tiled.total_slack() + 1,
                           max(1, tiled.total_slack() // 5))
        ]
        assert all(b >= a for a, b in zip(counts, counts[1:]))

    def test_small_logic_affects_one_tile(self, tiled_ctx):
        mapped, packed, tiled = tiled_ctx
        slack0 = tiled.tiles[0].slack
        if slack0 == 0:
            pytest.skip("tile 0 has no slack")
        assert tiled.affected_tiles_for_logic(slack0, 0) == [0]

    def test_oversized_logic_raises(self, tiled_ctx):
        mapped, packed, tiled = tiled_ctx
        with pytest.raises(TilingError):
            tiled.affected_tiles_for_logic(tiled.total_slack() + 1, 0)

    def test_max_logic_decreases_with_points(self, tiled_ctx):
        mapped, packed, tiled = tiled_ctx
        budgets = [tiled.max_logic_for_test_points(p) for p in (1, 2, 4, 8, 16)]
        assert all(b >= a for a, b in zip(budgets[1:], budgets))
        assert budgets[0] == max(t.slack for t in tiled.tiles)


class TestCommits:
    def _flip_lut(self, mapped):
        lut = next(
            i for i in mapped.instances()
            if i.kind is CellKind.LUT and i.inputs
        )
        size = 1 << len(lut.inputs)
        mapped.set_params(lut, {"table": lut.params["table"] ^ (size - 1)})
        return lut

    def test_commit_confines_frames(self, tiled_ctx):
        mapped, packed, tiled = tiled_ctx
        rects = [t.rect for t in tiled.tiles]
        before = frames_for_tiles(tiled.layout, rects)
        self._flip_lut(mapped)
        report = tiled.apply_changeset(seed=4, preset=EFFORT_PRESETS["fast"])
        after = frames_for_tiles(tiled.layout, rects)
        diffs = {
            i for i, (x, y) in enumerate(zip(before, after)) if x != y
        }
        assert diffs <= set(report.affected_tiles)

    def test_commit_reports_effort(self, tiled_ctx):
        mapped, packed, tiled = tiled_ctx
        self._flip_lut(mapped)
        report = tiled.apply_changeset(seed=4, preset=EFFORT_PRESETS["fast"])
        assert report.effort.work_units > 0
        assert report.effort.invocations == 1

    def test_commit_with_new_logic_expands_when_needed(self, tiled_ctx):
        mapped, packed, tiled = tiled_ctx
        from repro.debug.instrument import test_logic_block

        anchor = next(
            i for i in mapped.instances() if i.kind is CellKind.LUT
        )
        slack0 = tiled.tiles[tiled.tile_of_instance(anchor.name)].slack
        test_logic_block(
            mapped, n_clbs=slack0 + 2, attach_net=anchor.output.name,
            name="big",
        )
        report = tiled.apply_changeset(
            seed=5, preset=EFFORT_PRESETS["fast"],
            anchor_instance=anchor.name,
        )
        assert report.expanded
        assert len(report.affected_tiles) >= 2

    def test_commit_keeps_layout_legal(self, tiled_ctx):
        mapped, packed, tiled = tiled_ctx
        self._flip_lut(mapped)
        tiled.apply_changeset(seed=6, preset=EFFORT_PRESETS["fast"])
        tiled.layout.placement.check_complete()
        # every net still fully connected
        for idx, tree in tiled.layout.routes.items():
            net = packed.nets[idx]
            assert tiled.layout.placement.site_of(net.driver) in tree.cells
            for sink in net.sinks:
                assert tiled.layout.placement.site_of(sink) in tree.cells

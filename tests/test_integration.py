"""End-to-end integration: the paper's full flow on a real benchmark."""

import pytest

from repro.api import CampaignRunner, RunSpec, expand_matrix, run_spec
from repro.emu import frames_for_tiles
from repro.pnr.effort import EFFORT_PRESETS


@pytest.mark.slow
def test_styr_campaign_tiled_beats_quick_eco():
    """The headline claim on a real MCNC benchmark."""
    specs = expand_matrix(
        RunSpec(
            design="styr", error_kind="wrong_function", seed=3,
            error_seed=3, preset="fast", n_cycles=5, n_patterns=64,
            cache="private",
        ),
        strategies=["tiled", "quick_eco"],
    )
    campaign = CampaignRunner().run(specs)
    tiled, quick = campaign.results
    assert (tiled.strategy, quick.strategy) == ("tiled", "quick_eco")
    assert tiled.fixed and quick.fixed
    assert tiled.n_commits == quick.n_commits  # same debugging work
    assert (
        tiled.effort["debug"]["work_units"]
        < quick.effort["debug"]["work_units"]
    ), "tiling must reduce back-end effort"


def test_lock_invariant_across_debug_session():
    """Unaffected tile frames stay byte-identical through a whole run."""
    result, ctx = run_spec(
        RunSpec(
            design="9sym", strategy="tiled", seed=2, preset="fast",
            n_cycles=4, n_patterns=64,
            tiling={"n_tiles": 6, "area_overhead": 0.3},
            error_kind="output_invert", error_seed=4, max_probes=3,
        ),
        return_context=True,
    )
    assert result.detected
    tiled = ctx.strategy.tiled
    assert tiled is not None

    # one more committed change with frame snapshots around it
    from repro.netlist.cells import CellKind
    from repro.tiling.eco import ChangeRecorder

    netlist = ctx.packed.netlist
    lut = next(
        i for i in netlist.instances()
        if i.kind is CellKind.LUT and i.inputs
    )
    rects = [t.rect for t in tiled.tiles]
    before = frames_for_tiles(tiled.layout, rects)
    with ChangeRecorder(netlist, "post-session touch") as rec:
        lut.params = {"table": lut.params["table"] ^ 1}
    commit = tiled.apply_changeset(
        rec.changes, seed=9, preset=EFFORT_PRESETS["fast"]
    )
    after = frames_for_tiles(tiled.layout, rects)
    changed = {i for i, (a, b) in enumerate(zip(before, after)) if a != b}
    assert changed <= set(commit.affected_tiles)


def test_incremental_strategy_end_to_end():
    result = run_spec(RunSpec(
        design="9sym", strategy="incremental", seed=6, preset="fast",
        n_cycles=4, n_patterns=64, error_kind="wrong_function",
        error_seed=1, max_probes=3,
    ))
    assert result.detected
    assert result.fixed

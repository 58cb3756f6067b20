"""End-to-end integration: the paper's full flow on a real benchmark."""

import hashlib
import json

import pytest

from repro.api import CampaignRunner, RunSpec, expand_matrix, run_spec
from repro.api.pipeline import PipelineHooks
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

    netlist = ctx.packed.netlist
    lut = next(
        i for i in netlist.instances()
        if i.kind is CellKind.LUT and i.inputs
    )
    rects = [t.rect for t in tiled.tiles]
    before = frames_for_tiles(tiled.layout, rects)
    netlist.set_params(lut, {"table": lut.params["table"] ^ 1})
    commit = tiled.apply_changeset(
        "post-session touch", seed=9, preset=EFFORT_PRESETS["fast"]
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


class _CommitLog(PipelineHooks):
    def __init__(self) -> None:
        self.records = []

    def on_commit(self, ctx, record) -> None:
        self.records.append(
            [record.description, record.detail, record.cache_hit]
        )


@pytest.mark.parametrize("fields, n_commits, digest", [
    (dict(error_seed=6, n_errors=2, max_probes=4), 11, "2c9a82e7c4f7da86"),
    (dict(error_seed=1, correction="cegis"), 6, "0eaac7d547d9a82c"),
    (dict(error_seed=1, strategy="incremental"), 6, "72ce05aa1889058f"),
    (dict(error_seed=3, strategy="quick_eco"), 5, "d89a9949034c4554"),
], ids=["two-fault", "cegis", "incremental", "quick-eco"])
def test_commit_records_pinned(fields, n_commits, digest):
    """Every commit's (description, detail, cache hit), pinned per spec:
    between them the specs cover every strategy and the observe,
    retire, oracle-fix and CEGIS commit descriptions."""
    hooks = _CommitLog()
    result = run_spec(
        RunSpec(design="9sym", preset="fast", cache="private", **fields),
        hooks=hooks,
    )
    assert result.status == "ok", result.status
    records = hooks.records
    text = json.dumps(records)
    assert (len(records), hashlib.sha256(text.encode()).hexdigest()[:16]) == (
        n_commits, digest
    ), records

"""The cyclic collector's one owner: runs pause it, overlaps share it.

``run_spec`` holds :func:`repro.obs.collector.run_scope` around a whole
run and a tile-cache entry decode holds :func:`repro.obs.collector.paused`.
Whatever order runs and decodes enter and leave in, on however many
threads, the collector ends in the state the caller left it in, and the
outcomes are those of runs with the collector untouched.
"""

import gc
import pickle
import threading
import types

import pytest

from perfbench.checks import comparable
from repro.api.campaign import CampaignRunner
from repro.api.pipeline import PipelineHooks, run_spec
from repro.api.spec import RunSpec
from repro.obs import collector
from repro.obs.metrics import METRICS
from repro.tiling import cache as cache_module
from repro.tiling.cache import TileConfig, TileConfigStore

BASE = dict(design="9sym", preset="fast", max_probes=6, cache="off")

#: a spec per way a run ends
ENDINGS = {
    "ok": dict(error_seed=1),
    "failed": dict(error_seed=1, chaos={"kind": "exception",
                                        "stage": "localize"}),
    "timeout": dict(error_seed=1, timeout_s=1e-6),
}


@pytest.fixture
def collector_state():
    """Sets the collector's state for a test and puts the test runner's
    back afterwards."""
    was = gc.isenabled()

    def set_state(enabled: bool) -> None:
        (gc.enable if enabled else gc.disable)()

    yield set_state
    set_state(was)


class _OnDetect(PipelineHooks):
    """Calls ``action`` at the first detect stage of a run."""

    def __init__(self, action):
        self.action = action
        self.fired = False

    def on_stage_start(self, stage, ctx):
        if not self.fired:
            self.fired = True
            self.action()


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("ending", sorted(ENDINGS))
def test_a_run_restores_the_prior_state(collector_state, ending, enabled):
    collector_state(enabled)
    seen = []
    hooks = _OnDetect(lambda: seen.append(gc.isenabled()))
    result = run_spec(RunSpec(**BASE, **ENDINGS[ending]), hooks=hooks)
    assert result.status == ending
    assert seen in ([], [False])  # a timed-out run may stop before detect
    assert gc.isenabled() is enabled
    with pytest.raises(AttributeError):
        run_spec("not a spec")
    assert gc.isenabled() is enabled


@pytest.mark.parametrize("enabled", [True, False])
def test_overlapping_runs_share_the_collector(collector_state, enabled):
    """Paused while one run is in, in the caller's state while two are,
    paused again when one leaves, the caller's state after both."""
    collector_state(enabled)
    seen = {}
    first_in = threading.Event()
    second_left = threading.Event()

    def first_inside():
        seen["alone"] = gc.isenabled()
        first_in.set()
        assert second_left.wait(60)
        seen["alone_again"] = gc.isenabled()

    def second_inside():
        seen["both"] = gc.isenabled()

    first = threading.Thread(target=run_spec, args=(
        RunSpec(**BASE, error_seed=1),), kwargs={"hooks": _OnDetect(
            first_inside)})
    second = threading.Thread(target=run_spec, args=(
        RunSpec(**BASE, error_seed=2),), kwargs={"hooks": _OnDetect(
            second_inside)})
    first.start()
    try:
        assert first_in.wait(60)
        second.start()
        second.join(60)
        seen["after_second"] = gc.isenabled()
    finally:
        second_left.set()
        first.join(60)
    assert not first.is_alive() and not second.is_alive()
    assert seen == {"alone": False, "both": enabled,
                    "after_second": False, "alone_again": False}
    assert gc.isenabled() is enabled


def test_multi_worker_campaign_collects_during_overlap(collector_state):
    collector_state(True)
    specs = [RunSpec(**BASE, error_seed=seed) for seed in range(1, 9)]
    serial = CampaignRunner(workers=1).run(specs).results
    overlapped = []

    def watch(phase, info):
        if phase == "start" and collector._runs > 1:
            overlapped.append(info["generation"])

    before = METRICS.counter_value("repro_collector_runs_total",
                                   mode="shared")
    gc.callbacks.append(watch)
    try:
        threaded = CampaignRunner(workers=4).run(specs).results
    finally:
        gc.callbacks.remove(watch)
    assert [comparable(r) for r in threaded] == \
        [comparable(r) for r in serial]
    assert overlapped, "no automatic collection while runs overlapped"
    assert METRICS.counter_value("repro_collector_runs_total",
                                 mode="shared") > before
    assert gc.isenabled()


#: released by the test while a decode is in flight
_DECODING = threading.Event()
_FINISH_DECODE = threading.Event()


def _blocking_loads(payload):
    _DECODING.set()
    assert _FINISH_DECODE.wait(60)
    return pickle.loads(payload)


@pytest.mark.parametrize("first_in", ["run", "decode"])
@pytest.mark.parametrize("first_out", ["run", "decode"])
def test_decode_and_run_interleaved(collector_state, monkeypatch, tmp_path,
                                    first_in, first_out):
    """A decode entering and leaving around a run's enter and exit, on
    another thread, never leaves the collector off."""
    collector_state(True)
    store = TileConfigStore(str(tmp_path / "store"))
    store.write_entry("k", TileConfig({"a": (0, 1)}, {}, {}))
    monkeypatch.setattr(cache_module, "pickle", types.SimpleNamespace(
        load=pickle.load, loads=_blocking_loads))
    _DECODING.clear()
    _FINISH_DECODE.clear()
    run_in = threading.Event()
    run_release = threading.Event()
    decoded = []

    def inside_run():
        run_in.set()
        assert run_release.wait(60)

    holders = {
        "run": (threading.Thread(target=run_spec, args=(
            RunSpec(**BASE, error_seed=1),),
            kwargs={"hooks": _OnDetect(inside_run)}), run_in, run_release),
        "decode": (threading.Thread(target=lambda: decoded.append(
            store.read_entry(store.entry_path("k")))), _DECODING,
            _FINISH_DECODE),
    }
    second_in = "decode" if first_in == "run" else "run"
    try:
        for name in (first_in, second_in):
            thread, entered, _ = holders[name]
            thread.start()
            assert entered.wait(60)
        assert not gc.isenabled()  # a decode is in flight
        thread, _, release = holders[first_out]
        release.set()
        thread.join(60)
        assert not gc.isenabled()  # one holder is still in
    finally:
        for thread, _, release in holders.values():
            release.set()
            thread.join(60)
    assert decoded and decoded[0][0] == "k"
    assert gc.isenabled()


def test_paused_runs_leak_nothing(collector_state):
    """Every run's cyclic garbage is collectable once it has left: 20
    runs grow the tracked heap by under 5% of its size after one."""
    collector_state(True)
    runner = CampaignRunner(workers=1)
    specs = [RunSpec(**BASE, error_seed=seed) for seed in range(1, 21)]
    runner.run(specs[:1])
    gc.collect()
    after_one = len(gc.get_objects())
    runner.run(specs[1:])
    gc.collect()
    after_all = len(gc.get_objects())
    assert abs(after_all - after_one) <= 0.05 * after_one, \
        (after_one, after_all)


def test_collections_are_counted_per_generation():
    before = METRICS.counter_value("repro_gc_collections_total",
                                   generation="2")
    gc.collect()
    run_spec(RunSpec(**BASE, error_seed=1))
    assert METRICS.counter_value("repro_gc_collections_total",
                                 generation="2") > before
    assert METRICS.counter_value("repro_gc_seconds_total",
                                 generation="2") > 0

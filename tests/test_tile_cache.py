"""TileConfigCache: replay identity, guards, and fallback behavior."""

import pytest

from repro.arch import pick_device
from repro.debug.errors import ERROR_KINDS
from repro.emu import frames_for_tiles
from repro.netlist.cells import CellKind
from repro.pnr import EFFORT_PRESETS
from repro.synth import map_to_luts, pack_netlist
from repro.tiling import TiledLayout, TilingOptions
from repro.tiling.cache import (
    TileConfig,
    TileConfigCache,
    cached_full_place_and_route,
)
from repro.tiling.eco import ChangeRecorder
from tests.conftest import make_adder_netlist
from tests.test_replace_region import assert_layout_legal


def build_tiled(cache):
    """Deterministic tiled layout twin-buildable for replay tests."""
    netlist = make_adder_netlist(10, registered=True)
    mapped = map_to_luts(netlist)
    packed = pack_netlist(mapped)
    device = pick_device(packed.n_clbs, area_overhead=0.6,
                         min_io=len(packed.io_blocks()) + 8)
    tiled = TiledLayout.create(
        packed, device, TilingOptions(n_tiles=4, area_overhead=0.3),
        seed=2, preset=EFFORT_PRESETS["fast"], tile_cache=cache,
    )
    return mapped, packed, tiled


def flip_first_lut(mapped):
    lut = next(
        i for i in mapped.instances() if i.kind is CellKind.LUT and i.inputs
    )
    with ChangeRecorder(mapped, "flip") as rec:
        size = 1 << len(lut.inputs)
        lut.params = {"table": lut.params["table"] ^ (size - 1)}
    return rec.changes


def placement_by_name(layout):
    packed = layout.packed
    return {
        packed.blocks[b].name: site
        for b, site in layout.placement.pos.items()
    }


def routes_by_name(layout):
    packed = layout.packed
    return {
        packed.nets[idx].name: (set(t.cells), set(t.edges))
        for idx, t in layout.routes.items()
    }


def test_identical_commit_replays_from_cache():
    cache = TileConfigCache()
    mapped1, packed1, tiled1 = build_tiled(cache)
    r1 = tiled1.apply_changeset(
        flip_first_lut(mapped1), seed=4, preset=EFFORT_PRESETS["fast"]
    )
    assert not r1.cache_hit  # first time: computed and stored

    mapped2, packed2, tiled2 = build_tiled(cache)
    r2 = tiled2.apply_changeset(
        flip_first_lut(mapped2), seed=4, preset=EFFORT_PRESETS["fast"]
    )
    assert r2.cache_hit
    assert r2.affected_tiles == r1.affected_tiles
    # the replayed configuration is byte-identical to the computed one
    assert placement_by_name(tiled2.layout) == placement_by_name(tiled1.layout)
    assert routes_by_name(tiled2.layout) == routes_by_name(tiled1.layout)
    rects = [t.rect for t in tiled1.tiles]
    assert frames_for_tiles(tiled1.layout, rects) == frames_for_tiles(
        tiled2.layout, rects
    )
    assert_layout_legal(tiled2.layout, check_capacity=False)


def test_different_seed_misses():
    cache = TileConfigCache()
    mapped1, _, tiled1 = build_tiled(cache)
    tiled1.apply_changeset(
        flip_first_lut(mapped1), seed=4, preset=EFFORT_PRESETS["fast"]
    )
    mapped2, _, tiled2 = build_tiled(cache)
    r2 = tiled2.apply_changeset(
        flip_first_lut(mapped2), seed=5, preset=EFFORT_PRESETS["fast"]
    )
    assert not r2.cache_hit


def test_stale_changeset_bypasses_cache():
    cache = TileConfigCache()
    mapped1, _, tiled1 = build_tiled(cache)
    tiled1.apply_changeset(
        flip_first_lut(mapped1), seed=4, preset=EFFORT_PRESETS["fast"]
    )
    mapped2, _, tiled2 = build_tiled(cache)
    changes = flip_first_lut(mapped2)
    lookups_before = cache.hits + cache.misses
    # forge a base revision that cannot line up with the manager's
    # last-synced revision: the commit must skip the cache entirely
    changes.base_revision = (tiled2._synced_revision or 0) + 1000
    r2 = tiled2.apply_changeset(
        changes, seed=4, preset=EFFORT_PRESETS["fast"]
    )
    assert not r2.cache_hit
    assert cache.hits + cache.misses == lookups_before
    assert_layout_legal(tiled2.layout, check_capacity=False)


def test_corrupted_entry_is_rejected_and_recomputed():
    cache = TileConfigCache()
    mapped1, _, tiled1 = build_tiled(cache)
    tiled1.apply_changeset(
        flip_first_lut(mapped1), seed=4, preset=EFFORT_PRESETS["fast"]
    )
    # corrupt every stored tile configuration: off-device sites can
    # never pass apply-time verification
    for config in cache._entries.values():
        if config.sites:
            name = next(iter(config.sites))
            config.sites[name] = (999, 999)

    mapped2, _, tiled2 = build_tiled(cache)
    r2 = tiled2.apply_changeset(
        flip_first_lut(mapped2), seed=4, preset=EFFORT_PRESETS["fast"]
    )
    assert not r2.cache_hit
    assert cache.rejected >= 1
    assert_layout_legal(tiled2.layout, check_capacity=False)


def test_whole_design_pnr_replay():
    cache = TileConfigCache()

    def build():
        netlist = make_adder_netlist(8, registered=True)
        mapped = map_to_luts(netlist)
        packed = pack_netlist(mapped)
        device = pick_device(packed.n_clbs, area_overhead=0.5,
                             min_io=len(packed.io_blocks()))
        return packed, device

    packed1, device1 = build()
    layout1 = cached_full_place_and_route(
        packed1, device1, seed=7, preset=EFFORT_PRESETS["fast"],
        strict_routing=False, cache=cache,
    )
    assert cache.stores == 1 and cache.hits == 0

    packed2, device2 = build()
    layout2 = cached_full_place_and_route(
        packed2, device2, seed=7, preset=EFFORT_PRESETS["fast"],
        strict_routing=False, cache=cache,
    )
    assert cache.hits == 1
    by_name1 = {
        packed1.blocks[b].name: s for b, s in layout1.placement.pos.items()
    }
    by_name2 = {
        packed2.blocks[b].name: s for b, s in layout2.placement.pos.items()
    }
    assert by_name1 == by_name2
    assert {packed1.nets[i].name: set(t.edges)
            for i, t in layout1.routes.items()} == {
        packed2.nets[i].name: set(t.edges)
        for i, t in layout2.routes.items()
    }
    assert_layout_legal(layout2, check_capacity=False)


def test_cache_lru_eviction_and_stats():
    cache = TileConfigCache(max_entries=2)
    for i in range(3):
        cache.store(f"k{i}", TileConfig({}, {}, {}))
    assert len(cache) == 2
    assert cache.lookup("k0") is None  # evicted
    assert cache.lookup("k2") is not None
    assert cache.stores == 3
    stats = cache.stats()
    assert stats["hits"] == 1.0 and stats["misses"] == 1.0
    cache.clear()
    assert len(cache) == 0 and cache.hits == 0


# ----------------------------------------------------------------------
# persistence (save/load across processes)
# ----------------------------------------------------------------------

def test_save_load_round_trip(tmp_path):
    cache = TileConfigCache()
    mapped, packed, tiled = build_tiled(cache)
    changes = flip_first_lut(mapped)
    tiled.apply_changeset(changes, seed=5, preset=EFFORT_PRESETS["fast"])
    assert cache.stores > 0
    path = str(tmp_path / "cache.pkl")
    assert cache.save(path) == len(cache)

    fresh = TileConfigCache()
    assert fresh.load(path) == len(cache)
    assert len(fresh) == len(cache)

    # a twin build against the loaded cache replays every configuration
    mapped2, packed2, tiled2 = build_tiled(fresh)
    before = fresh.hits
    changes2 = flip_first_lut(mapped2)
    tiled2.apply_changeset(changes2, seed=5, preset=EFFORT_PRESETS["fast"])
    assert fresh.hits > before
    assert placement_by_name(tiled2.layout) == placement_by_name(tiled.layout)
    assert routes_by_name(tiled2.layout) == routes_by_name(tiled.layout)
    assert_layout_legal(tiled2.layout)


def test_load_missing_file_is_ignored(tmp_path):
    cache = TileConfigCache()
    assert cache.load(str(tmp_path / "nonexistent.pkl")) == 0
    assert len(cache) == 0


def test_load_corrupt_file_is_ignored(tmp_path):
    path = tmp_path / "corrupt.pkl"
    path.write_bytes(b"this is not a pickle at all \x00\xff")
    cache = TileConfigCache()
    assert cache.load(str(path)) == 0
    assert len(cache) == 0


def test_load_truncated_file_is_ignored(tmp_path):
    cache = TileConfigCache()
    cache.store("k", TileConfig({}, {}, {}))
    path = str(tmp_path / "trunc.pkl")
    cache.save(path)
    with open(path, "rb") as fh:
        blob = fh.read()
    with open(path, "wb") as fh:
        fh.write(blob[: len(blob) // 2])
    fresh = TileConfigCache()
    assert fresh.load(path) == 0


def test_load_version_mismatch_is_ignored(tmp_path, monkeypatch):
    import repro.tiling.cache as cache_mod

    cache = TileConfigCache()
    cache.store("k", TileConfig({}, {}, {}))
    path = str(tmp_path / "versioned.pkl")
    cache.save(path)
    monkeypatch.setattr(cache_mod, "CACHE_FORMAT_VERSION", 9999)
    fresh = TileConfigCache()
    assert fresh.load(path) == 0


def test_load_digest_mismatch_is_ignored(tmp_path):
    import pickle

    cache = TileConfigCache()
    cache.store("k", TileConfig({}, {}, {}))
    path = str(tmp_path / "tampered.pkl")
    cache.save(path)
    with open(path, "rb") as fh:
        wrapper = pickle.load(fh)
    wrapper["payload"] = wrapper["payload"] + b"tamper"
    with open(path, "wb") as fh:
        pickle.dump(wrapper, fh)
    fresh = TileConfigCache()
    assert fresh.load(path) == 0

def test_load_wrong_format_is_ignored(tmp_path):
    import pickle

    path = str(tmp_path / "alien.pkl")
    with open(path, "wb") as fh:
        pickle.dump(
            {"format": "some-other-tool", "version": 1,
             "sha256": "", "payload": b""},
            fh,
        )
    fresh = TileConfigCache()
    assert fresh.load(path) == 0
    assert len(fresh) == 0


def test_load_empty_file_is_ignored(tmp_path):
    path = tmp_path / "empty.pkl"
    path.write_bytes(b"")
    fresh = TileConfigCache()
    assert fresh.load(str(path)) == 0
    assert len(fresh) == 0


def test_load_flipped_payload_byte_is_ignored(tmp_path):
    """A single flipped bit inside the payload trips the digest guard."""
    import pickle

    cache = TileConfigCache()
    cache.store("k", TileConfig({"b": (1, 2)}, {}, {}))
    path = str(tmp_path / "flipped.pkl")
    cache.save(path)
    with open(path, "rb") as fh:
        wrapper = pickle.load(fh)
    payload = bytearray(wrapper["payload"])
    payload[len(payload) // 2] ^= 0x40
    wrapper["payload"] = bytes(payload)
    with open(path, "wb") as fh:
        pickle.dump(wrapper, fh)
    fresh = TileConfigCache()
    assert fresh.load(path) == 0
    assert len(fresh) == 0


def test_verify_cache_file(tmp_path):
    from repro.tiling.cache import verify_cache_file

    path = str(tmp_path / "cache.pkl")
    assert verify_cache_file(path) == 0  # missing
    cache = TileConfigCache()
    cache.store("a", TileConfig({}, {}, {}))
    cache.store("b", TileConfig({}, {}, {}))
    cache.save(path)
    assert verify_cache_file(path) == 2
    with open(path, "wb") as fh:
        fh.write(b"garbage")
    assert verify_cache_file(path) == 0


def test_concurrent_save_load_store_stress(tmp_path):
    """Campaign workers hammering one cache + disk file lose nothing."""
    import os
    import threading

    path = str(tmp_path / "stress.pkl")
    cache = TileConfigCache(max_entries=4096)
    errors = []

    def writer(worker):
        try:
            for n in range(25):
                cache.store(f"w{worker}.k{n}", TileConfig({}, {}, {}))
                if n % 5 == 0:
                    cache.save(path)
        except Exception as exc:  # pragma: no cover - failure reporting
            errors.append(exc)

    def reader():
        try:
            for _ in range(25):
                other = TileConfigCache(max_entries=4096)
                other.load(path)
                cache.load(path)
        except Exception as exc:  # pragma: no cover - failure reporting
            errors.append(exc)

    threads = [
        threading.Thread(target=writer, args=(w,)) for w in range(4)
    ] + [threading.Thread(target=reader) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    # every stored key survived in memory (loads only ever merge)
    assert len(cache) == 4 * 25
    cache.save(path)
    fresh = TileConfigCache(max_entries=4096)
    assert fresh.load(path) == 4 * 25
    # atomic save leaves no temp droppings behind
    assert [f for f in os.listdir(tmp_path) if ".tmp" in f] == []


# ----------------------------------------------------------------------
# content-addressed on-disk store
# ----------------------------------------------------------------------

def test_store_address_and_roundtrip(tmp_path):
    from repro.tiling.cache import TileConfigStore

    store = TileConfigStore(str(tmp_path / "store"))
    hexkey = "ab" * 32
    assert store.address(hexkey) == hexkey  # digest keys address as-is
    assert store.address("plain-key") != "plain-key"
    assert len(store.address("plain-key")) == 64

    config = TileConfig({"b": (1, 2)}, {}, {})
    assert store.write_entry("plain-key", config) is True
    # second write of the same digest is a no-op, not a rewrite
    assert store.write_entry("plain-key", config) is False
    assert len(store) == 1
    key, loaded = store.read_entry(store.entry_path("plain-key"))
    assert key == "plain-key"
    assert loaded.sites == config.sites


def test_store_merge_quarantines_damage(tmp_path):
    from repro.tiling.cache import TileConfigStore

    store = TileConfigStore(str(tmp_path / "store"))
    store.write_entry("good", TileConfig({}, {}, {}))
    store.write_entry("bad", TileConfig({}, {}, {}))
    with open(store.entry_path("bad"), "wb") as fh:
        fh.write(b"garbage")
    cache = TileConfigCache()
    assert store.merge_into(cache) == 1
    assert cache.lookup("good") is not None
    # loads must not skew campaign stats: merge bumps no counters
    assert cache.stores == 0
    # the damaged entry moved aside and stays out of future loads
    assert len(store.quarantined_files()) == 1
    assert len(store) == 1
    assert store.merge_into(TileConfigCache()) == 1


def test_store_write_back_merges_across_workers(tmp_path):
    from repro.tiling.cache import TileConfigStore

    root = str(tmp_path / "store")
    a = TileConfigCache()
    a.store("k1", TileConfig({}, {}, {}))
    a.store("k2", TileConfig({}, {}, {}))
    b = TileConfigCache()
    b.store("k2", TileConfig({}, {}, {}))
    b.store("k3", TileConfig({}, {}, {}))
    assert TileConfigStore(root).write_back(a) == 2
    # the overlapping digest is already present: only k3 is new
    assert TileConfigStore(root).write_back(b) == 1
    merged = TileConfigCache()
    assert TileConfigStore(root).merge_into(merged) == 3


def test_store_crash_leftovers_are_swept(tmp_path):
    import os

    from repro.tiling.cache import TileConfigStore

    store = TileConfigStore(str(tmp_path / "store"))
    store.write_entry("k", TileConfig({}, {}, {}))
    shard = os.path.dirname(store.entry_path("k"))
    # a worker killed mid-write leaves a temp file, never an entry
    with open(os.path.join(shard, "dead.pkl.tmp.999.1"), "wb") as fh:
        fh.write(b"partial")
    cache = TileConfigCache()
    assert store.merge_into(cache) == 1
    assert not any(".tmp." in n for n in os.listdir(shard))


def test_verify_cache_file_accepts_store_dir_and_entry(tmp_path):
    from repro.tiling.cache import TileConfigStore, verify_cache_file

    store = TileConfigStore(str(tmp_path / "store"))
    store.write_entry("k1", TileConfig({}, {}, {}))
    store.write_entry("k2", TileConfig({}, {}, {}))
    assert verify_cache_file(store.root) == 2
    assert verify_cache_file(store.entry_path("k1")) == 1
    with open(store.entry_path("k2"), "wb") as fh:
        fh.write(b"garbage")
    assert verify_cache_file(store.root) == 1


def test_verify_cache_store_reports_damage_read_only(tmp_path):
    from repro.tiling.cache import (
        TileConfigStore,
        cache_file_path,
        verify_cache_store,
    )

    cache_dir = str(tmp_path)
    store = TileConfigStore(cache_file_path(cache_dir))
    store.write_entry("ok", TileConfig({}, {}, {}))
    store.write_entry("broken", TileConfig({}, {}, {}))
    with open(store.entry_path("broken"), "wb") as fh:
        fh.write(b"garbage")
    report = verify_cache_store(cache_dir)
    assert report["valid"] == 1
    assert report["corrupt"] == [store.entry_path("broken")]
    assert report["quarantined"] == []
    assert report["legacy_entries"] == 0
    # read-only: the damaged file is still in place afterwards
    assert len(store) == 2


def test_load_tile_cache_migrates_legacy_pickle(tmp_path):
    from repro.tiling.cache import (
        TileConfigStore,
        cache_file_path,
        legacy_cache_file_path,
        load_tile_cache,
        save_tile_cache,
    )

    cache_dir = str(tmp_path)
    old = TileConfigCache()
    old.store("legacy-key", TileConfig({}, {}, {}))
    old.save(legacy_cache_file_path(cache_dir))
    cache = load_tile_cache(cache_dir)
    assert cache.lookup("legacy-key") is not None
    save_tile_cache(cache, cache_dir)
    # the migrated entry now lives in the content-addressed store
    fresh = TileConfigCache()
    assert TileConfigStore(cache_file_path(cache_dir)).merge_into(fresh) == 1
    assert fresh.lookup("legacy-key") is not None


# ----------------------------------------------------------------------
# connectivity-only keys: a new error on a known design replays its P&R
# ----------------------------------------------------------------------

#: error kinds that leave every block net's terminals alone (they edit a
#: LUT's table or its pin order), so the P&R keys must not change
LOGIC_ONLY_KINDS = ("table_bit", "wrong_function", "output_invert",
                    "input_swap")


def implement_9sym(cache, kind=None, error_seed=1):
    """Initial P&R + tiled relayout of 9sym, as the tiled pipeline does
    them, optionally after injecting one ``kind`` error.

    Returns ``(initial layout, tiled layout, changed block-net ids)``.
    """
    from repro.api import RunSpec
    from repro.api.pipeline import RunContext
    from repro.debug.errors import inject_errors
    from repro.synth.pack import refresh_block_nets

    ctx = RunContext.from_spec(
        RunSpec(design="9sym", preset="fast"), tile_cache=cache
    )
    changed = set()
    if kind is not None:
        inject_errors(ctx.packed.netlist, [kind], seed=error_seed)
        _, changed, _ = refresh_block_nets(ctx.packed)
    initial = ctx.strategy.build_initial()
    ctx.strategy.prepare_for_debug()
    return initial, ctx.strategy.tiled, changed


@pytest.fixture(scope="module")
def clean_9sym_entries():
    """Cache entries a clean (error-free) 9sym implementation stores."""
    cache = TileConfigCache()
    implement_9sym(cache)
    assert cache.stores == 2  # initial P&R + tiled relayout
    return list(cache._entries.items())


@pytest.mark.parametrize("kind", ERROR_KINDS)
def test_new_error_replays_clean_twin_pnr(kind, clean_9sym_entries):
    """Replaying a clean twin's P&R equals computing it fresh, per kind;
    only an error that rewires block nets misses."""
    warm = TileConfigCache()
    for key, config in clean_9sym_entries:
        warm.store_quietly(key, config)
    fresh_initial, fresh_tiled, changed = implement_9sym(None, kind)
    warm_initial, warm_tiled, _ = implement_9sym(warm, kind)

    if kind in LOGIC_ONLY_KINDS:
        assert not changed
        assert (warm.hits, warm.misses, warm.rejected) == (2, 0, 0)
    else:
        assert kind == "wrong_source" and changed
        assert warm.hits == 0 and warm.misses == 2

    rects = [t.rect for t in fresh_tiled.tiles]
    assert [t.rect for t in warm_tiled.tiles] == rects
    for fresh, replayed in ((fresh_initial, warm_initial),
                            (fresh_tiled.layout, warm_tiled.layout)):
        assert placement_by_name(replayed) == placement_by_name(fresh)
        assert routes_by_name(replayed) == routes_by_name(fresh)
        assert frames_for_tiles(
            replayed, rects, include_routing=True
        ) == frames_for_tiles(fresh, rects, include_routing=True)
        assert_layout_legal(replayed, check_capacity=False)

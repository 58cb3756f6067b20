"""TileConfigCache: replay identity, guards, and fallback behavior."""

import os
import subprocess
import sys

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
    """Invert the first LUT's table; returns the commit's description."""
    lut = next(
        i for i in mapped.instances() if i.kind is CellKind.LUT and i.inputs
    )
    size = 1 << len(lut.inputs)
    mapped.set_params(lut, {"table": lut.params["table"] ^ (size - 1)})
    return "flip"


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


def test_unrecorded_edit_reaches_the_commit():
    """A ``set_params`` made after the flip, outside the step the commit
    is named for, is still absorbed: its tile is affected, so the commit
    cannot hit the entry its twin stored without that edit."""
    cache = TileConfigCache()
    mapped1, _, tiled1 = build_tiled(cache)
    r1 = tiled1.apply_changeset(
        flip_first_lut(mapped1), seed=4, preset=EFFORT_PRESETS["fast"]
    )
    mapped2, _, tiled2 = build_tiled(cache)
    rev = mapped2.revision
    description = flip_first_lut(mapped2)
    flipped, _, _ = mapped2.edits_since(rev)
    other = next(
        i for i in mapped2.instances()
        if i.kind is CellKind.LUT and i.inputs
        and tiled2.tile_of_instance(i.name) not in r1.affected_tiles
    )
    mapped2.set_params(other, {"table": other.params["table"] ^ 1})
    assert other.name not in flipped
    hits = cache.hits
    r2 = tiled2.apply_changeset(
        description, seed=4, preset=EFFORT_PRESETS["fast"]
    )
    assert tiled2.tile_of_instance(other.name) in r2.affected_tiles
    assert set(r1.affected_tiles) < set(r2.affected_tiles)
    assert not r2.cache_hit and cache.hits == hits
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
    # lookups are uncounted: the replay path records verdicts
    assert cache.hits == cache.misses == 0
    for verdict in ("hit", "miss", "rejected"):
        cache.record(verdict)
    stats = cache.stats()
    assert stats["hits"] == 1.0 and stats["misses"] == 2.0
    assert stats["rejected"] == 1.0
    cache.clear()
    assert len(cache) == 0 and cache.hits == 0


# ----------------------------------------------------------------------
# persistence through the entry store (across processes)
# ----------------------------------------------------------------------

def test_save_load_round_trip(tmp_path):
    """A twin build warmed from disk replays every configuration."""
    from repro.tiling.cache import load_tile_cache, save_tile_cache

    cache = TileConfigCache()
    mapped, packed, tiled = build_tiled(cache)
    tiled.apply_changeset(
        flip_first_lut(mapped), seed=5, preset=EFFORT_PRESETS["fast"]
    )
    assert cache.stores > 0
    cache_dir = str(tmp_path / "cache")
    assert save_tile_cache(cache, cache_dir) == len(cache)

    fresh = load_tile_cache(cache_dir)
    assert len(fresh) == len(cache)

    mapped2, packed2, tiled2 = build_tiled(fresh)
    before = fresh.hits
    tiled2.apply_changeset(
        flip_first_lut(mapped2), seed=5, preset=EFFORT_PRESETS["fast"]
    )
    assert fresh.hits > before
    assert placement_by_name(tiled2.layout) == placement_by_name(tiled.layout)
    assert routes_by_name(tiled2.layout) == routes_by_name(tiled.layout)
    assert_layout_legal(tiled2.layout)


def _rewrap(path, **fields):
    """Rewrite one entry file's wrapper with ``fields`` replaced."""
    import pickle

    with open(path, "rb") as fh:
        wrapper = pickle.load(fh)
    wrapper.update(fields)
    with open(path, "wb") as fh:
        pickle.dump(wrapper, fh)


def _flip_payload_byte(path):
    import pickle

    with open(path, "rb") as fh:
        payload = bytearray(pickle.load(fh)["payload"])
    payload[len(payload) // 2] ^= 0x40
    _rewrap(path, payload=bytes(payload))


def _truncate(path):
    with open(path, "rb") as fh:
        blob = fh.read()
    with open(path, "wb") as fh:
        fh.write(blob[: len(blob) // 2])


def _overwrite(blob):
    def damage(path):
        with open(path, "wb") as fh:
            fh.write(blob)
    return damage


def _append_to_payload(path):
    import pickle

    with open(path, "rb") as fh:
        payload = pickle.load(fh)["payload"]
    _rewrap(path, payload=payload + b"tamper")


def assert_damaged_entry_is_contained(tmp_path, damage):
    """One damaged entry file next to a good one in an attached store:
    the reader rejects it, a lookup of its key misses and quarantines
    exactly it, the good entry still reads, and verification counts it
    out."""
    from repro.tiling.cache import (
        TileConfigStore,
        cache_file_path,
        load_tile_cache,
        verify_cache_file,
    )

    cache_dir = str(tmp_path / "cache")
    store = TileConfigStore(cache_file_path(cache_dir))
    store.write_entry("good", TileConfig({"a": (0, 1)}, {}, {}))
    store.write_entry("bad", TileConfig({"b": (1, 2)}, {}, {}))
    bad = store.entry_path("bad")
    damage(bad)

    assert store.read_entry(bad) is None
    assert verify_cache_file(bad) == 0
    assert verify_cache_file(store.root) == 1
    cache = load_tile_cache(cache_dir)
    assert store.quarantined_files() == []  # attaching reads nothing
    assert cache.lookup("bad") is None
    assert cache.lookup("good").sites == {"a": (0, 1)}
    assert len(cache) == 1
    # a read is neither a store nor a verdict
    assert cache.stores == cache.hits == cache.misses == 0
    quarantined = store.quarantined_files()
    assert [os.path.basename(q) for q in quarantined] == [
        os.path.basename(bad) + ".corrupt"
    ]
    assert store.entry_files() == [store.entry_path("good")]
    assert cache.lookup("bad") is None  # a quarantined key stays a miss


def test_load_missing_file_is_ignored(tmp_path):
    from repro.tiling.cache import (
        TileConfigStore,
        load_tile_cache,
        verify_cache_file,
    )

    missing = str(tmp_path / "nonexistent.pkl")
    assert TileConfigStore.read_entry(missing) is None
    assert verify_cache_file(missing) == 0
    assert len(load_tile_cache(str(tmp_path / "no-such-dir"))) == 0


def test_load_corrupt_file_is_ignored(tmp_path):
    assert_damaged_entry_is_contained(
        tmp_path, _overwrite(b"this is not a pickle at all \x00\xff")
    )


def test_load_truncated_file_is_ignored(tmp_path):
    assert_damaged_entry_is_contained(tmp_path, _truncate)


def test_load_version_mismatch_is_ignored(tmp_path):
    from repro.tiling.cache import CACHE_FORMAT_VERSION

    assert_damaged_entry_is_contained(
        tmp_path, lambda path: _rewrap(path, version=CACHE_FORMAT_VERSION + 1)
    )


def test_load_digest_mismatch_is_ignored(tmp_path):
    assert_damaged_entry_is_contained(tmp_path, _append_to_payload)


def test_load_wrong_format_is_ignored(tmp_path):
    assert_damaged_entry_is_contained(
        tmp_path, lambda path: _rewrap(path, format="some-other-tool")
    )


def test_load_empty_file_is_ignored(tmp_path):
    assert_damaged_entry_is_contained(tmp_path, _overwrite(b""))


def test_load_flipped_payload_byte_is_ignored(tmp_path):
    """A single flipped bit inside the payload trips the digest guard."""
    assert_damaged_entry_is_contained(tmp_path, _flip_payload_byte)


def test_load_wrapper_naming_another_key_is_ignored(tmp_path):
    """An intact entry under another key's address (a misfiled copy)
    never answers for the key it is filed under."""
    assert_damaged_entry_is_contained(
        tmp_path, lambda path: _rewrap(path, key="good")
    )


def test_verify_cache_file(tmp_path):
    from repro.tiling.cache import TileConfigStore, verify_cache_file

    store = TileConfigStore(str(tmp_path / "store"))
    path = store.entry_path("a")
    assert verify_cache_file(path) == 0  # missing
    store.write_entry("a", TileConfig({}, {}, {}))
    assert verify_cache_file(path) == 1
    with open(path, "wb") as fh:
        fh.write(b"garbage")
    assert verify_cache_file(path) == 0


def test_concurrent_save_load_store_stress(tmp_path):
    """Campaign workers writing back to one store lose no entry and
    leave no temp files behind while another thread keeps attaching the
    store (each attach sweeps temp files under the store lock), and
    threads sharing one attached cache read entries on demand: every
    lookup returns an equal config or ``None``, a damaged entry is
    quarantined once, the counters add up, and the cycle collector ends
    enabled."""
    import gc
    import threading

    from repro.tiling.cache import (
        TileConfigStore,
        cache_file_path,
        load_tile_cache,
        save_tile_cache,
    )

    cache_dir = str(tmp_path / "cache")
    root = cache_file_path(cache_dir)
    errors = []

    def config(name, n):
        return TileConfig({f"{name}.b": (n, n)}, {}, {})

    seeded = TileConfigStore(root)
    for n in range(20):
        seeded.write_entry(f"s.k{n}", config("s", n))
    seeded.write_entry("bad", config("bad", 0))
    _truncate(seeded.entry_path("bad"))
    # a small LRU keeps evicting, so the same keys are read again
    shared = load_tile_cache(cache_dir, TileConfigCache(max_entries=6))
    verdicts = {"hit": 0, "miss": 0}
    verdict_lock = threading.Lock()

    def writer(worker):
        try:
            cache = TileConfigCache(max_entries=4096)
            for n in range(25):
                cache.store(f"w{worker}.k{n}", config(f"w{worker}", n))
                if n % 5 == 4:
                    # a fresh handle per write-back, as separate
                    # processes would have
                    TileConfigStore(root).write_back(cache)
        except Exception as exc:  # pragma: no cover - failure reporting
            errors.append(exc)

    def shared_writer():
        try:
            for n in range(25):
                shared.store(f"x.k{n}", config("x", n))
                save_tile_cache(shared, cache_dir)
        except Exception as exc:  # pragma: no cover - failure reporting
            errors.append(exc)

    def reader(names):
        try:
            for _ in range(10):
                for name, n in names:
                    got = shared.lookup(f"{name}.k{n}")
                    if got is not None and got != config(name, n):
                        raise AssertionError(f"{name}.k{n} read {got}")
                    verdict = "miss" if got is None else "hit"
                    shared.record(verdict)
                    with verdict_lock:
                        verdicts[verdict] += 1
        except Exception as exc:  # pragma: no cover - failure reporting
            errors.append(exc)

    def quarantiner():
        try:
            for _ in range(10):
                assert shared.lookup("bad") is None
        except Exception as exc:  # pragma: no cover - failure reporting
            errors.append(exc)

    writers_done = threading.Event()
    sweeps = []

    def sweeper():
        # a sweep must never delete a live writer's temp file: the
        # writer's os.replace would then fail
        try:
            while not writers_done.is_set():
                load_tile_cache(cache_dir)
                sweeps.append(1)
        except Exception as exc:  # pragma: no cover - failure reporting
            errors.append(exc)

    names = [("s", n) for n in range(20)] + [
        (f"w{w}", n) for w in range(4) for n in range(0, 25, 3)
    ]
    threads = (
        [threading.Thread(target=writer, args=(w,)) for w in range(4)]
        + [threading.Thread(target=shared_writer)]
        + [threading.Thread(target=reader, args=(names[i::3],))
           for i in range(3)]
        + [threading.Thread(target=quarantiner)]
    )
    sweep_thread = threading.Thread(target=sweeper)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        sweep_thread.start()
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        writers_done.set()
        sweep_thread.join(timeout=120)
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads + [sweep_thread])
    assert not errors
    assert sweeps
    assert gc.isenabled()
    assert shared.hits == verdicts["hit"] and shared.misses == verdicts["miss"]
    assert shared.hits + shared.misses == 10 * len(names)
    assert shared.stores == 25 and shared.rejected == 0
    # seeded entries were there all along: every lookup of one hit
    assert shared.hits >= 10 * 20
    store = TileConfigStore(root)
    expected = {f"w{w}.k{n}" for w in range(4) for n in range(25)}
    expected |= {f"s.k{n}" for n in range(20)}
    # the shared cache's own entries reach the store unless the small
    # LRU evicted them before their write-back
    written = {k for k in (f"x.k{n}" for n in range(25))
               if os.path.exists(store.entry_path(k))}
    expected |= written
    assert written
    assert store.addresses() == {store.address(k) for k in expected}
    assert len(shared) == len(expected)
    assert [os.path.basename(q) for q in store.quarantined_files()] == [
        os.path.basename(store.entry_path("bad")) + ".corrupt"
    ]
    for key in sorted(expected):
        got = load_tile_cache(cache_dir).lookup(key)
        name, n = key.rsplit(".k", 1)
        assert got == config(name, int(n))
    leftovers = [
        name for _, _, names in os.walk(tmp_path) for name in names
        if ".tmp." in name
    ]
    assert leftovers == []


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


def test_store_read_quarantines_damage(tmp_path):
    from repro.tiling.cache import TileConfigStore

    store = TileConfigStore(str(tmp_path / "store"))
    store.write_entry("good", TileConfig({}, {}, {}))
    store.write_entry("bad", TileConfig({}, {}, {}))
    with open(store.entry_path("bad"), "wb") as fh:
        fh.write(b"garbage")
    cache = TileConfigCache(backing=store)
    assert len(cache) == 2  # a directory listing, nothing read
    assert cache.lookup("good") is not None
    assert cache.lookup("missing") is None
    assert cache.lookup("bad") is None
    # a read is not a store, and a lookup counts no verdict
    assert cache.stores == 0
    assert cache.hits == cache.misses == cache.rejected == 0
    # the damaged entry moved aside and stays out of future reads
    assert len(store.quarantined_files()) == 1
    assert len(store) == 1 and len(cache) == 1
    assert TileConfigStore(store.root).read("bad") is None


def test_quarantine_spares_an_entry_rewritten_since_its_read(tmp_path):
    """A reader that found an entry damaged must not move aside the good
    file another worker quarantined, recomputed and wrote back since."""
    from repro.tiling.cache import TileConfigStore

    store = TileConfigStore(str(tmp_path / "store"))
    config = TileConfig({"b": (1, 2)}, {}, {})
    store.write_entry("k", config)
    path = store.entry_path("k")
    assert store.quarantine(path) is None
    assert store.quarantined_files() == []
    assert TileConfigStore(store.root).read("k") == config
    _truncate(path)
    assert store.quarantine(path) == store.quarantined_files()[0]
    assert not os.path.exists(path)


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
    store = TileConfigStore(root)
    assert store.addresses() == {store.address(k) for k in ("k1", "k2", "k3")}


def test_store_crash_leftovers_are_swept(tmp_path):
    from repro.tiling.cache import TileConfigStore

    store = TileConfigStore(str(tmp_path / "store"))
    store.write_entry("k", TileConfig({}, {}, {}))
    shard = os.path.dirname(store.entry_path("k"))
    # a worker killed mid-write leaves a temp file, never an entry
    dead = subprocess.Popen([sys.executable, "-c", "pass"])
    dead.wait()
    with open(os.path.join(shard, f"dead.pkl.tmp.{dead.pid}.1"), "wb") as fh:
        fh.write(b"partial")
    # a live writer's temp file is mid-write: the sweep leaves it alone
    live = f"live.pkl.tmp.{os.getpid()}.1"
    with open(os.path.join(shard, live), "wb") as fh:
        fh.write(b"partial")
    store.sweep_temp_files()
    assert [n for n in os.listdir(shard) if ".tmp." in n] == [live]
    assert len(store) == 1


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
    # read-only: the damaged file is still in place afterwards
    assert len(store) == 2


#: collector states seen by :func:`_record_gc_state` calls
_GC_SEEN: list = []


def _record_gc_state():
    import gc

    _GC_SEEN.append(gc.isenabled())


class _RecordsGcState:
    """Unpickling an instance records whether the collector is on."""

    def __reduce__(self):
        return (_record_gc_state, ())


class _RaisesOnLoad:
    def __reduce__(self):
        return (int, ("not a number",))


def _write_raw_entry(store, key, obj):
    """An entry file for ``key`` whose payload pickles ``obj`` (a valid
    wrapper and digest, whatever ``obj`` is)."""
    import hashlib
    import pickle

    from repro.tiling.cache import CACHE_FORMAT_VERSION

    payload = pickle.dumps(obj)
    path = store.entry_path(key)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "wb") as fh:
        pickle.dump({
            "format": "repro-tile-config-entry",
            "version": CACHE_FORMAT_VERSION, "key": key,
            "sha256": hashlib.sha256(payload).hexdigest(),
            "payload": payload,
        }, fh)
    return path


@pytest.mark.parametrize("enabled", [True, False])
def test_entry_decode_pauses_and_restores_the_collector(tmp_path, enabled):
    """The payload decodes with the cycle collector off, and the
    collector's prior state is back afterwards, also when decode
    raises."""
    import gc

    from repro.tiling.cache import TileConfigStore

    store = TileConfigStore(str(tmp_path / "store"))
    store.write_entry("good", TileConfig({"a": (0, 1)}, {}, {}))
    _GC_SEEN.clear()
    recorder = _write_raw_entry(store, "records", _RecordsGcState())
    raiser = _write_raw_entry(store, "raises", _RaisesOnLoad())
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        assert store.read_entry(store.entry_path("good")) is not None
        assert gc.isenabled() is enabled
        # a payload that is no TileConfig is damage, read with GC off
        assert store.read_entry(recorder) is None
        assert _GC_SEEN == [False] and gc.isenabled() is enabled
        assert store.read_entry(raiser) is None
        assert gc.isenabled() is enabled
        assert store.read("raises") is None  # quarantined, GC restored
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    assert len(store.quarantined_files()) == 1


def _outcome(result):
    """``comparable(result)`` without the count of cached commits, the
    one outcome field a warm run changes."""
    from perfbench.checks import comparable

    data = comparable(result)
    data.pop("n_commit_cache_hits")
    return data


def test_run_reads_only_its_own_entries(tmp_path, monkeypatch):
    """A run against a store that also holds another design's entries
    decodes only the entry files it replays — the ones its own cold run
    wrote — each once, and every P&R step hits; its outcome equals the
    cold run's."""
    from repro.api import RunSpec, run_spec
    from repro.tiling.cache import TileConfigStore, cache_file_path

    cache_dir = str(tmp_path / "cache")
    store = TileConfigStore(cache_file_path(cache_dir))
    spec = RunSpec(design="9sym", error_seed=1, preset="fast",
                   max_probes=6, cache="private", cache_dir=cache_dir)
    cold = run_spec(spec)
    own = set(store.entry_files())
    assert cold.status == "ok" and own
    other = run_spec(spec.replaced(design="styr", error_seed=4))
    assert other.status == "ok"
    assert set(store.entry_files()) > own

    reads = []
    read_entry = TileConfigStore.read_entry

    def recording(path):
        reads.append(path)
        return read_entry(path)

    monkeypatch.setattr(TileConfigStore, "read_entry",
                        staticmethod(recording))
    warm = run_spec(spec)
    assert sorted(reads) == sorted(own)
    assert warm.cache["misses"] == 0 and warm.cache["hits"] > 0
    assert _outcome(warm) == _outcome(cold)


def test_damaged_entry_read_by_a_run_is_quarantined(tmp_path):
    """Each damage kind, hit through a run's lookup, is a miss: the run
    recomputes that configuration, stays ``ok`` with the cold run's
    outcome, quarantines the file and writes a good one back."""
    from repro.api import RunSpec, run_spec
    from repro.tiling.cache import (
        CACHE_FORMAT_VERSION,
        TileConfigStore,
        cache_file_path,
        verify_cache_store,
    )

    damages = (
        _overwrite(b"this is not a pickle at all \x00\xff"), _truncate,
        lambda path: _rewrap(path, version=CACHE_FORMAT_VERSION + 1),
        _append_to_payload,
        lambda path: _rewrap(path, format="some-other-tool"),
        _overwrite(b""), _flip_payload_byte,
    )
    cache_dir = str(tmp_path / "cache")
    store = TileConfigStore(cache_file_path(cache_dir))
    spec = RunSpec(design="9sym", error_seed=1, preset="fast",
                   max_probes=6, cache="private", cache_dir=cache_dir)
    cold = run_spec(spec)
    paths = store.entry_files()
    assert len(paths) >= 2
    # an identical rerun looks up every entry the cold run stored
    first = paths[0]
    misfiled = lambda path: _rewrap(  # noqa: E731
        path, key=TileConfigStore.read_entry(paths[1])[0])
    for damage in damages + (misfiled,):
        damage(first)
        with open(first, "rb") as fh:
            damaged = fh.read()
        warm = run_spec(spec)
        assert warm.status == "ok"
        assert warm.cache["misses"] >= 1 and warm.cache["hits"] >= 1
        assert _outcome(warm) == _outcome(cold)
        report = verify_cache_store(cache_dir)
        [quarantined] = report["quarantined"]
        with open(quarantined, "rb") as fh:
            assert fh.read() == damaged
        assert report["corrupt"] == [] and report["valid"] == len(paths)


class _WritesMarker:
    """Unpickling an instance creates ``marker``: the canary for any
    code path that opens a stray pickle in a cache directory."""

    def __init__(self, marker):
        self.marker = marker

    def __reduce__(self):
        return (open, (self.marker, "w"))


def test_planted_cache_pickle_is_never_opened(tmp_path):
    """``tile_configs.pkl`` (the retired whole-cache format) is never
    unpickled by any cache-dir entry point."""
    import pickle

    from repro.api import RunSpec, run_spec
    from repro.api.cli import main as cli_main
    from repro.tiling.cache import load_tile_cache, verify_cache_store

    cache_dir = str(tmp_path / "cache")
    os.makedirs(cache_dir)
    marker = str(tmp_path / "unpickled")
    with open(os.path.join(cache_dir, "tile_configs.pkl"), "wb") as fh:
        pickle.dump(_WritesMarker(marker), fh)

    assert len(load_tile_cache(cache_dir)) == 0
    assert not os.path.exists(marker)
    report = verify_cache_store(cache_dir)
    assert not os.path.exists(marker)
    assert report == {"valid": 0, "corrupt": [], "quarantined": []}
    assert cli_main(["cache", "verify", cache_dir]) == 0
    assert not os.path.exists(marker)
    result = run_spec(RunSpec(
        design="9sym", error_seed=1, preset="fast", max_probes=6,
        cache="private", cache_dir=cache_dir,
    ))
    assert not os.path.exists(marker)
    assert result.status == "ok"


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
    from tests.conftest import refresh_block_nets

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
        warm.store(key, config)
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


def test_every_route_tree_carries_edge_ids():
    """Fresh and replayed builds and commits leave every tree with edge
    ids that match its edges (the legality audit compares them)."""
    from repro.api.design import device_for
    from repro.generators import build_design

    fast = EFFORT_PRESETS["fast"]
    cache = TileConfigCache()
    hits = []
    for _ in range(2):  # computed, then replayed from the cache
        bundle = build_design("des")
        tiled = TiledLayout.create(
            bundle.packed, device_for(bundle.packed),
            TilingOptions(n_tiles=10), seed=1, preset=fast, tile_cache=cache,
        )
        assert all(t.eids is not None for t in tiled.layout.routes.values())
        report = tiled.apply_changeset(
            flip_first_lut(bundle.mapped), seed=1, preset=fast
        )
        hits.append(report.cache_hit)
        assert all(t.eids is not None for t in tiled.layout.routes.values())
        assert_layout_legal(tiled.layout, check_capacity=False)
    assert hits == [False, True]
    assert cache.stats()["hits"] >= 3


# ----------------------------------------------------------------------
# placement-only initial entries: a tiled run routes no untiled layout
# ----------------------------------------------------------------------

def test_placement_entry_never_replays_for_a_routed_lookup(
    tmp_path, monkeypatch
):
    """A tiled run stores its untiled placement with no routes; the
    ``incremental`` and ``quick_eco`` runs after it in the same cache
    still get a routed untiled layout, and every outcome and route equals
    that of a run with no cache.  The placement-only entry persists,
    passes ``cache verify`` and replays from the store."""
    from perfbench.checks import comparable
    from repro.api import RunSpec, run_spec
    from repro.api.cli import main as cli_main
    from repro.debug.strategies import BaseStrategy
    from repro.tiling.cache import (
        load_tile_cache,
        save_tile_cache,
        verify_cache_store,
    )

    initial = []
    build = BaseStrategy.build_initial

    def recording(self, meter=None):
        layout = build(self, meter)
        initial.append((placement_by_name(layout), routes_by_name(layout)))
        return layout

    monkeypatch.setattr(BaseStrategy, "build_initial", recording)

    def run(strategy, cache):
        initial.clear()
        result, ctx = run_spec(
            RunSpec(design="9sym", error_seed=1, preset="fast",
                    strategy=strategy),
            tile_cache=cache, return_context=True,
        )
        ((placement, routes),) = initial
        return result, placement, routes, routes_by_name(ctx.strategy.layout)

    shared = TileConfigCache()
    tiled, placement, routes, _ = run("tiled", shared)
    assert tiled.status == "ok" and routes == {}
    assert tiled.effort["initial"]["route_expansions"] == 0
    assert [c.routes for c in shared._entries.values()].count({}) == 1

    for strategy, hits in (("incremental", 0), ("quick_eco", 1)):
        result, placed, routed, final = run(strategy, shared)
        twin = run(strategy, None)
        # the initial lookup never even finds the placement entry (a
        # found one would fail verification: rejected), and quick_eco
        # replays the routed entry incremental stored
        assert (result.cache["hits"], result.cache["rejected"]) == (hits, 0)
        assert routed and placed == placement
        assert comparable(result) == comparable(twin[0])
        assert (placed, routed, final) == twin[1:]

    cache_dir = str(tmp_path / "cache")
    assert save_tile_cache(shared, cache_dir) == len(shared)
    report = verify_cache_store(cache_dir)
    assert report["valid"] == len(shared)
    assert report["corrupt"] == report["quarantined"] == []
    assert cli_main(["cache", "verify", cache_dir]) == 0

    warm = load_tile_cache(cache_dir)
    replayed, placement_again, routes_again, _ = run("tiled", warm)
    assert warm.rejected == 0 and warm.misses == 0
    assert (placement_again, routes_again) == (placement, {})
    outcome = comparable(replayed)
    assert outcome.pop("n_commit_cache_hits") == replayed.n_commits
    expected = comparable(tiled)
    expected.pop("n_commit_cache_hits")
    assert outcome == expected

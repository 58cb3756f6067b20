"""Precomputed tile configurations — the paper's spare-config trick.

The source paper's central performance claim is that debugging changes
should *reconfigure* precomputed tile configurations instead of
re-running place-and-route.  :class:`TileConfigCache` is the mechanized
form: every tile-confined commit is keyed by a digest of everything that
determines its physical outcome, and the resulting configuration
(movable-block sites plus the full routes of every rerouted net) is kept
so an identical reconfiguration — the probe insert/remove cycles of a
localization campaign, or a repeat of the same campaign — replays the
stored configuration instead of annealing and maze-routing again.

Key contents (a stale entry can never match, let alone apply):

* design name, device geometry and channel width;
* effort preset and commit seed (the fresh path is deterministic in
  them, so a hit reproduces exactly what the fresh path would build);
* the affected tile rectangles;
* the kind and name of every movable block — connectivity only: the
  placer and router never read LUT truth tables or pin order, so a new
  logic-only error (``table_bit``, ``wrong_function``, ``output_invert``,
  ``input_swap``) on a known design replays its P&R, while logic still
  reaches the emulator and the bitstream frames from the live netlist;
* per rerouted net: its name, the sites of its locked terminals, the
  names of its still-unplaced terminals, and the locked route fragments
  outside the affected region (the paper's tile *interface*).

Invalidation is structural, not temporal: entries are immortal until
evicted (bounded LRU) because a lookup can only hit when the current
block connectivity, placement and locked routes present byte-identical
context.  The whole-design keys (:func:`full_pnr_key`) follow the same
rule: connectivity, device, preset, seed and constraints, never logic.
A commit absorbs every netlist edit since the last one from the
netlist's edit log, so its key always describes the live connectivity.

Every replay — whole-design P&R (:func:`cached_full_place_and_route`),
the routeless placement of a tiled run (:func:`cached_full_place`) and
tile commits alike — crosses one path,
:func:`repro.tiling.manager.replay_or_compute`.  It trusts a stored
entry only after :func:`repro.pnr.flow.apply_region_config` has verified
site legality, terminal membership and channel capacity against the
live layout, and only then records the verdict (:meth:`TileConfigCache.record`:
hit, miss, or rejected).  :meth:`TileConfigCache.lookup` itself counts
nothing.

A ``--cache-dir`` store is attached, not loaded (:func:`load_tile_cache`):
a memory miss reads and checks the one entry file of the key looked up,
and a damaged file is quarantined on that read, so the lookup misses and
the fresh path recomputes it.  A run decodes only what it replays.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import re
import threading
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.obs.collector import paused
from repro.obs.metrics import METRICS

try:  # advisory locking is POSIX-only; the store degrades gracefully
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None

#: Bumped whenever the on-disk payload layout changes; files written by
#: another version are quarantined on load.
CACHE_FORMAT_VERSION = 1

_ENTRY_FORMAT_NAME = "repro-tile-config-entry"

#: Directory name of the content-addressed entry store inside a
#: ``--cache-dir`` directory.
CACHE_STORE_NAME = "tile_configs"

_HEX_KEY = re.compile(r"^[0-9a-f]{64}$")


@dataclass
class TileConfig:
    """One reusable tile configuration (the cached value).

    Everything is stored by *name* (block names, net names) so a hit
    from an identically-built sibling design — e.g. the same campaign
    re-run under another simulation engine — resolves cleanly even
    though its block/net index spaces are distinct objects.
    """

    #: movable CLB block name → grid site
    sites: dict[str, tuple[int, int]]
    #: freshly placed IOB block name → ring slot
    io_slots: dict[str, tuple[int, int]]
    #: net name → (cells, edges, ((sink block name, hops), ...),
    #: precomputed fabric edge ids)
    routes: dict[str, tuple[frozenset, frozenset, tuple, tuple]]
    #: capture-time occupancy of over-capacity edges (replay may match
    #: the fresh path's non-strict overuse, but never exceed it)
    over_allow: dict = field(default_factory=dict)


#: the counters a run's (or a campaign's) cache delta reports
CACHE_COUNTERS = ("hits", "misses", "stores", "rejected")


def cache_summary(counts: dict, entries: float) -> dict:
    """``counts`` (one value per :data:`CACHE_COUNTERS` name) plus the
    hit rate they imply and the closing entry count."""
    summary = {k: float(counts[k]) for k in CACHE_COUNTERS}
    looked = summary["hits"] + summary["misses"]
    summary["hit_rate"] = summary["hits"] / looked if looked else 0.0
    summary["entries"] = entries
    return summary


def _tally(counters, verdict: str) -> None:
    """Add one replay verdict to ``counters``: ``hit``, ``miss`` or
    ``rejected`` (an entry that failed verification, also a miss)."""
    if verdict == "hit":
        counters.hits += 1
    else:
        counters.misses += 1
        counters.rejected += verdict == "rejected"


@dataclass
class TileConfigCache:
    """Bounded LRU of :class:`TileConfig` entries with hit accounting."""

    max_entries: int = 512
    hits: int = 0
    misses: int = 0
    stores: int = 0
    rejected: int = 0
    _entries: OrderedDict = field(default_factory=OrderedDict, repr=False)
    #: guards entry + counter updates so campaign workers can share one
    #: cache (lock per cache, never serialized)
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )
    #: the attached store (:func:`load_tile_cache`), read on a memory miss
    backing: TileConfigStore | None = field(
        default=None, repr=False, compare=False
    )

    def lookup(self, key: str) -> TileConfig | None:
        """The entry for ``key`` (refreshing its LRU slot), or ``None``; a
        memory miss reads it from the backing store, if any, and keeps it.
        Uncounted: the caller records the verdict with :meth:`record`
        once the entry has been verified."""
        with self._lock:
            config = self._entries.get(key)
            if config is not None:
                self._entries.move_to_end(key)
            backing = self.backing
        if config is None and backing is not None:
            config = backing.read(key)
            if config is not None:
                with self._lock:
                    self._insert(key, config)
        return config

    def record(self, verdict: str) -> None:
        """Count one replay verdict (see :func:`_tally`); the only
        place the ``repro_commit_cache_*`` metrics move."""
        with self._lock:
            _tally(self, verdict)
        METRICS.inc("repro_commit_cache_hits_total" if verdict == "hit"
                    else "repro_commit_cache_misses_total")

    def store(self, key: str, config: TileConfig) -> None:
        with self._lock:
            self._insert(key, config)
            self.stores += 1

    def _insert(self, key: str, config: TileConfig) -> None:
        self._entries[key] = config
        self._entries.move_to_end(key)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.backing = None
            self.hits = self.misses = self.stores = self.rejected = 0

    def __len__(self) -> int:
        """Entries in memory or the backing store (listed, not read)."""
        with self._lock:
            keys, backing = list(self._entries), self.backing
        if backing is None:
            return len(keys)
        return len(backing.addresses() | set(map(backing.address, keys)))

    def stats(self) -> dict[str, float]:
        return cache_summary(
            {k: getattr(self, k) for k in CACHE_COUNTERS},
            float(len(self)),
        )


#: The process-wide cache.  Only the ``cache="shared"`` policy reaches it
#: (:func:`repro.api.pipeline.resolve_tile_cache`); every layer below
#: :mod:`repro.api` uses the cache its caller hands it, and none by default.
DEFAULT_TILE_CACHE = TileConfigCache()


class RunCacheView:
    """One run's window onto a (possibly shared) :class:`TileConfigCache`.

    Every call goes to ``inner``, but the counters are the run's own, so
    a run reports its own delta even while campaign threads or earlier
    daemon jobs use the same cache.
    """

    def __init__(self, inner: TileConfigCache) -> None:
        self.inner = inner
        self.hits = self.misses = self.stores = self.rejected = 0

    def record(self, verdict: str) -> None:
        self.inner.record(verdict)
        _tally(self, verdict)

    def store(self, key: str, config: TileConfig) -> None:
        self.inner.store(key, config)
        self.stores += 1

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def delta(self) -> dict:
        """This run's counters, shaped by :func:`cache_summary`."""
        return cache_summary(
            {k: getattr(self, k) for k in CACHE_COUNTERS},
            float(len(self.inner)),
        )


# ----------------------------------------------------------------------
# content-addressed on-disk store (crash- and multiprocess-safe)
# ----------------------------------------------------------------------

@contextmanager
def _file_lock(path: str):
    """``fcntl`` advisory lock held for the enclosed block.

    Per-entry writes are already atomic (temp + ``os.replace``); the
    lock only serializes the *compound* operations — the temp-file
    sweep's directory scan, and a quarantine's re-check and move —
    across worker processes.  On
    platforms without ``fcntl`` the lock degrades to a no-op, which
    costs nothing but a chance of double-quarantining a damaged entry.
    """
    if fcntl is None:  # pragma: no cover - non-POSIX platforms
        yield
        return
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "a+b") as fh:
        fcntl.flock(fh.fileno(), fcntl.LOCK_EX)
        try:
            yield
        finally:
            fcntl.flock(fh.fileno(), fcntl.LOCK_UN)


def _writer_alive(temp_name: str) -> bool:
    """Whether the process named in a ``<entry>.tmp.<pid>.<tid>`` temp
    file is still running (this process always is)."""
    try:
        pid = int(temp_name.rsplit(".tmp.", 1)[1].split(".", 1)[0])
    except (IndexError, ValueError):
        return False
    if pid == os.getpid():
        return True
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # alive, owned by another user
        return True
    return True


class TileConfigStore:
    """Content-addressed per-digest store of :class:`TileConfig` entries.

    The only on-disk form of a tile cache: every entry lives in its own
    file named by the SHA-256 of its cache key (``<root>/<aa>/<digest>.pkl``), written atomically via a
    temp-file + ``os.replace``.  That makes cross-process sharing a
    non-event — two workers storing the same digest write byte-identical
    files, a worker killed mid-write leaves only a temp file behind
    (swept when a cache attaches the store), and merge-on-writeback is
    simply "write the digests the disk does not have yet".  An entry is
    read on a lookup of its key (:meth:`read`); entries that fail
    verification on read (bad wrapper, payload digest mismatch, version
    skew) are *quarantined* — moved aside into ``<root>.quarantine/`` so
    they are inspected, never re-read, and never crash a lookup.
    """

    def __init__(self, root: str) -> None:
        self.root = root
        self.quarantine_dir = root + ".quarantine"
        self._lock_path = os.path.join(root, ".lock")
        #: addresses this handle has already seen on disk — a long-lived
        #: holder (service worker) write-backs incrementally without
        #: re-stat()ing every entry each time; membership only ever
        #: means "was present once", which is safe because entries are
        #: content-addressed and never rewritten
        self._known: set[str] = set()

    # -- naming --------------------------------------------------------

    @staticmethod
    def address(key: str) -> str:
        """The content address (file stem) of a cache key."""
        if _HEX_KEY.match(key):
            return key
        return hashlib.sha256(key.encode("utf-8")).hexdigest()

    def entry_path(self, key: str) -> str:
        digest = self.address(key)
        return os.path.join(self.root, digest[:2], digest + ".pkl")

    def _files(self) -> list[str]:
        """Every file in the store's shard directories, sorted."""
        files = []
        if not os.path.isdir(self.root):
            return files
        for shard in sorted(os.listdir(self.root)):
            shard_dir = os.path.join(self.root, shard)
            if len(shard) != 2 or not os.path.isdir(shard_dir):
                continue
            for name in sorted(os.listdir(shard_dir)):
                files.append(os.path.join(shard_dir, name))
        return files

    def entry_files(self) -> list[str]:
        """Every entry file currently in the store, sorted."""
        return [path for path in self._files() if path.endswith(".pkl")]

    def addresses(self) -> set[str]:
        """The content addresses of :meth:`entry_files` (nothing read)."""
        return {os.path.basename(path)[:-4] for path in self.entry_files()}

    def __len__(self) -> int:
        return len(self.entry_files())

    # -- single-entry I/O ----------------------------------------------

    def write_entry(self, key: str, config: TileConfig) -> bool:
        """Atomically persist one entry; False if already present.

        Same-digest files are byte-equivalent by construction, so an
        existing file never needs rewriting — which is exactly what
        makes concurrent write-backs from many workers safe.
        """
        digest = self.address(key)
        if digest in self._known:
            return False
        path = self.entry_path(key)
        if os.path.exists(path):
            self._known.add(digest)
            return False
        payload = pickle.dumps(config, protocol=pickle.HIGHEST_PROTOCOL)
        wrapper = {
            "format": _ENTRY_FORMAT_NAME,
            "version": CACHE_FORMAT_VERSION,
            "key": key,
            "sha256": hashlib.sha256(payload).hexdigest(),
            "payload": payload,
        }
        os.makedirs(os.path.dirname(path), exist_ok=True)
        # pid + thread id: concurrent writers never share a temp file
        tmp = f"{path}.tmp.{os.getpid()}.{threading.get_ident()}"
        try:
            with open(tmp, "wb") as fh:
                pickle.dump(wrapper, fh, protocol=pickle.HIGHEST_PROTOCOL)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, path)
            self._known.add(digest)
        finally:
            if os.path.exists(tmp):  # a failed replace must not litter
                try:
                    os.remove(tmp)
                except OSError:  # pragma: no cover - racing sweeper
                    pass
        return True

    @staticmethod
    def read_entry(path: str):
        """``(key, TileConfig)`` from one entry file, or ``None``.

        The format name, format version, and payload digest must all
        check out, the wrapper must name the key the file is addressed
        by, and the unpickled objects must have the expected types.
        Any damage yields ``None`` — the caller decides whether to
        quarantine.
        """
        try:
            with open(path, "rb") as fh:
                wrapper = pickle.load(fh)
            if not isinstance(wrapper, dict):
                return None
            if wrapper.get("format") != _ENTRY_FORMAT_NAME:
                return None
            if wrapper.get("version") != CACHE_FORMAT_VERSION:
                return None
            key = wrapper.get("key")
            payload = wrapper.get("payload")
            if not isinstance(key, str) or not isinstance(payload, bytes):
                return None
            if os.path.basename(path) != TileConfigStore.address(key) + ".pkl":
                return None
            if hashlib.sha256(payload).hexdigest() != wrapper.get("sha256"):
                return None
            # a decode makes many tuples and frozensets but no cycles,
            # and collections over them would cost most of it
            with paused():
                config = pickle.loads(payload)
            if not isinstance(config, TileConfig):
                return None
            return key, config
        except Exception:
            # corrupt pickle streams can raise nearly anything; the
            # contract is "damage is data, never an exception"
            return None

    def read(self, key: str) -> TileConfig | None:
        """``key``'s entry from its file, or ``None``; a file failing
        :meth:`read_entry` (which checks it names ``key``) is quarantined."""
        path = self.entry_path(key)
        if not os.path.exists(path):
            return None
        entry = self.read_entry(path)
        if entry is None:
            self.quarantine(path)
            return None
        self._known.add(self.address(key))
        return entry[1]

    def quarantine(self, path: str, reason: str = "corrupt") -> str | None:
        """Move a damaged entry aside; returns its new path (or None).

        The entry is re-checked under the store lock first: another
        process may have quarantined it, recomputed it and written a
        good file back since this one was read.
        """
        os.makedirs(self.quarantine_dir, exist_ok=True)
        dest = os.path.join(
            self.quarantine_dir, f"{os.path.basename(path)}.{reason}"
        )
        with _file_lock(self._lock_path):
            if self.read_entry(path) is not None:
                return None
            try:
                os.replace(path, dest)
            except OSError:
                # a concurrent reader already moved it; nothing left to do
                return None
        return dest

    def quarantined_files(self) -> list[str]:
        if not os.path.isdir(self.quarantine_dir):
            return []
        return sorted(
            os.path.join(self.quarantine_dir, name)
            for name in os.listdir(self.quarantine_dir)
        )

    def sweep_temp_files(self) -> None:
        """Remove temp droppings a killed writer left behind.

        Writers do not take the store lock, so a temp file whose writer
        process is still alive may be mid-write and is left alone.  The
        sweep itself runs under the store lock.
        """
        if not os.path.isdir(self.root):
            return
        with _file_lock(self._lock_path):
            for path in self._files():
                name = os.path.basename(path)
                if ".pkl.tmp." in name and not _writer_alive(name):
                    try:
                        os.remove(path)
                    except OSError:  # pragma: no cover - racing sweeper
                        pass

    # -- bulk operations -----------------------------------------------

    def write_back(self, cache: TileConfigCache) -> int:
        """Persist ``cache``'s entries the store does not have yet.

        The merge-on-writeback discipline: digests already on disk are
        skipped (same digest = same bytes), new digests land atomically,
        and nothing is ever rewritten — so any number of workers can
        write back concurrently without losing each other's entries.
        Returns the number of entries *newly* written.
        """
        os.makedirs(self.root, exist_ok=True)
        with cache._lock:
            entries = list(cache._entries.items())
        written = 0
        for key, config in entries:
            if self.write_entry(key, config):
                written += 1
        return written

    def verify(self) -> dict:
        """Read-only damage report over the store.

        ``{"valid": n, "corrupt": [paths], "quarantined": [paths]}`` —
        ``corrupt`` lists entry files that currently fail verification
        (the next lookup of their key quarantines them), ``quarantined``
        lists entries a lookup already moved aside.
        """
        valid = 0
        corrupt: list[str] = []
        for path in self.entry_files():
            if self.read_entry(path) is None:
                corrupt.append(path)
            else:
                valid += 1
        return {
            "valid": valid,
            "corrupt": corrupt,
            "quarantined": self.quarantined_files(),
        }


def cache_file_path(cache_dir: str) -> str:
    """The persistence target inside a ``--cache-dir`` directory.

    This is the entry store *directory*; :func:`verify_cache_file` and
    the chaos harness accept it directly.
    """
    return os.path.join(cache_dir, CACHE_STORE_NAME)


def load_tile_cache(cache_dir: str, cache: TileConfigCache | None = None
                    ) -> TileConfigCache:
    """Attach ``cache_dir``'s entry store to ``cache`` (default: a fresh
    one) as its read-on-demand backing store, replacing any other: dead
    writers' temp files are swept and nothing is decoded; each memory
    miss then reads one entry file.  Nothing else in ``cache_dir`` is
    opened."""
    cache = cache if cache is not None else TileConfigCache()
    store = TileConfigStore(cache_file_path(cache_dir))
    store.sweep_temp_files()
    cache.backing = store
    return cache


def save_tile_cache(cache: TileConfigCache, cache_dir: str) -> int:
    """Write back ``cache`` under ``cache_dir`` (created if missing),
    through its backing store when that is ``cache_dir``'s.

    Only digests missing from the store are written (each atomically),
    so concurrent campaign workers — threads or processes — can all
    write back without clobbering one another, and a crash mid-
    write-back loses at most the single entry being written.
    """
    store = cache.backing
    if store is None or store.root != cache_file_path(cache_dir):
        store = TileConfigStore(cache_file_path(cache_dir))
    return store.write_back(cache)


def verify_cache_file(path: str) -> int:
    """How many valid entries ``path`` holds (0 = unusable).

    ``path`` may be a store directory (per-digest layout) or a single
    entry file; damage is tolerated with the same hostile-file
    discipline as the read path, so callers (CI smoke checks, chaos
    tests) can assert a write-back survived without touching any shared
    cache state.
    """
    if os.path.isdir(path):
        return TileConfigStore(path).verify()["valid"]
    return int(TileConfigStore.read_entry(path) is not None)


def verify_cache_store(cache_dir: str) -> dict:
    """Full damage report for a ``--cache-dir`` directory.

    ``{"valid", "corrupt", "quarantined"}`` — the entry store's
    :meth:`TileConfigStore.verify` report.  Read-only: nothing is moved
    or deleted (a lookup of a ``corrupt`` entry's key quarantines it).
    """
    return TileConfigStore(cache_file_path(cache_dir)).verify()


# ----------------------------------------------------------------------
# whole-design precomputed configurations
# ----------------------------------------------------------------------

def pnr_key_header(packed, device, preset, seed) -> str:
    """Shared digest header: everything a deterministic P&R run of this
    design on this device under this effort/seed is parameterized by."""
    return (
        f"{packed.netlist.name}|{device.name}|{device.nx}x{device.ny}"
        f"|cw{device.channel_width}|io{device.io_per_slot}"
        f"|{preset.name}|i{preset.inner_num}|r{preset.router_iterations}"
        f"|e{preset.exit_ratio}|s{seed}"
    )


def full_pnr_key(packed, device, seed, preset, constraints=None,
                 context: str = "", strict_routing: bool = False) -> str:
    """Digest of everything a from-scratch place-and-route depends on.

    Covers the full design's connectivity — every block's kind and
    name, every block net's terminals — plus the device, the effort
    preset, the placement seed, and any region constraints.  Those
    are all the placer and router read, so identical digests mean the
    deterministic P&R would recompute the identical layout; a logic-only
    change (a LUT table or pin order) keeps the digest.
    """
    h = hashlib.sha256()
    h.update(
        f"full-pnr|{context}|{pnr_key_header(packed, device, preset, seed)}"
        f"|strict{int(strict_routing)}\n".encode()
    )
    for block in packed.blocks:
        h.update(f"{block.kind}:{block.name}\n".encode())
    for idx in sorted(packed.nets):
        net = packed.nets[idx]
        h.update(
            f"{net.name}|{packed.blocks[net.driver].name}|".encode()
        )
        h.update(
            ";".join(packed.blocks[s].name for s in net.sinks).encode()
        )
        h.update(b"\n")
    if constraints is not None:
        regions = sorted(
            (packed.blocks[b].name, (r.x0, r.y0, r.x1, r.y1))
            for b, r in constraints.regions.items()
        )
        h.update(repr(regions).encode())
        if constraints.free_sites is not None:
            h.update(repr(sorted(constraints.free_sites)).encode())
    return h.hexdigest()


def cached_full_place_and_route(
    packed,
    device,
    seed: int = 1,
    preset=None,
    meter=None,
    constraints=None,
    strict_routing: bool = True,
    cache: TileConfigCache | None = None,
    context: str = "",
):
    """:func:`repro.pnr.flow.full_place_and_route` behind the config cache.

    The routed initial implementation (strategies that read its routes)
    and the slack-aware tiled re-implementation are deterministic in
    their inputs, so a repeat of the same precomputation (e.g. the same
    campaign re-run under another simulation engine) replays the stored
    whole-design configuration — placement and routes — instead of
    annealing and maze-routing again.
    The replay crosses the same path as a tile reconfiguration
    (:func:`repro.tiling.manager.replay_or_compute`): every block is
    movable onto an empty layout, so a verified replay places every
    block, and any mismatch falls back to the fresh path.
    """
    from repro.pnr.effort import EFFORT_PRESETS, EffortMeter
    from repro.pnr.flow import full_place_and_route

    preset = preset or EFFORT_PRESETS["normal"]
    meter = meter if meter is not None else EffortMeter()
    key = None
    if cache is not None:
        key = full_pnr_key(
            packed, device, seed, preset, constraints=constraints,
            context=context, strict_routing=strict_routing,
        )
    return _replay_or_compute_full(
        packed, device, cache, key, sorted(packed.nets), meter,
        lambda: full_place_and_route(
            packed, device, seed=seed, preset=preset, meter=meter,
            constraints=constraints, strict_routing=strict_routing,
        ),
    )


def cached_full_place(packed, device, seed: int = 1, preset=None,
                      meter=None, cache: TileConfigCache | None = None):
    """:func:`repro.pnr.flow.full_place` behind the config cache.

    The untiled placement a tiled run reads, with no routes.  Its entry
    holds sites only, under a key context of its own (``placement``), so
    it never replays where a routed layout is looked up, nor a routed
    entry here.
    """
    from repro.pnr.effort import EFFORT_PRESETS, EffortMeter
    from repro.pnr.flow import full_place

    preset = preset or EFFORT_PRESETS["normal"]
    meter = meter if meter is not None else EffortMeter()
    key = None
    if cache is not None:
        key = full_pnr_key(packed, device, seed, preset, context="placement")
    return _replay_or_compute_full(
        packed, device, cache, key, [], meter,
        lambda: full_place(packed, device, seed=seed, preset=preset,
                           meter=meter),
    )


def _replay_or_compute_full(packed, device, cache, key, net_ids, meter,
                            fresh):
    """Replay ``key``'s whole-design entry onto an empty layout, or run
    ``fresh()``; the entry holds the routes of ``net_ids``."""
    from repro.pnr.flow import Layout
    from repro.pnr.placement import Placement
    from repro.pnr.router import RoutingState
    from repro.tiling.manager import replay_or_compute

    empty = Layout(
        packed, device, Placement(device, packed), {}, RoutingState(device),
    )
    layout, _ = replay_or_compute(
        cache, key, empty,
        {b.index for b in packed.clb_blocks()},
        {b.index for b in packed.io_blocks()},
        net_ids, [device.clb_region], meter, fresh,
    )
    return layout

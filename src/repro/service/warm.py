"""Per-worker warm-state registry — the daemon's resident artifacts.

A cold :func:`~repro.api.pipeline.run_spec` rebuilds, per call: the
design bundle (generate → map → pack), the device (and with it the
process-wide ``_Fabric`` tables), a golden-model copy whose compiled
emulation kernel is keyed per netlist *object*, and — when a
``cache_dir`` is set — a full tile-config store load.  In a long-lived
service worker every one of those is reusable, but only under precise
invalidation rules; this module owns them.

One :class:`WarmRegistry` lives in each worker process.  Entries are
keyed by ``(design digest, device, preset)``:

* the **design digest** (:func:`design_digest`) hashes every spec field
  that feeds bundle or device construction — design name, generator
  seed/params, BLIF path, channel width, device overhead — so any
  change to what the design *is* misses;
* **device** and **preset** key separately because the same design can
  be debugged on different fabrics or effort levels, each with its own
  strategy tables.

Within a hit, the pristine bundle is never handed to the pipeline
(which mutates ``packed.netlist`` by injecting errors and observation
logic); each job gets a **fork** — ``mapped.copy()`` re-packed — which
is structurally identical by construction and 4–10x cheaper than a
rebuild.  The golden model *is* shared across jobs (the pipeline only
reads it), so its compiled kernel — keyed by netlist object in
:func:`~repro.netlist.compiled.kernel_for`'s ``WeakKeyDictionary`` — and
its simulation net-history stay warm; a revision guard invalidates the
entry if any future code path mutates it.

Registry-wide (not per entry): one :class:`TileConfigCache` warmed once
from the daemon's ``--cache-dir`` (``cache="shared"`` jobs get it via
:func:`~repro.api.pipeline.resolve_tile_cache`) and its open
:class:`~repro.tiling.cache.TileConfigStore` handle.  The localizer's
cone index is rebuilt per job; it is cheap next to a diagnosis round.

Everything here is a cache, never a semantic input: a hit must produce
artifacts *exactly* equal to what ``RunContext.from_spec`` would build
cold, and the service bit-identity tests hold it to that.
"""

from __future__ import annotations

import hashlib
import json
from collections import OrderedDict

from repro.api.design import design_parts
from repro.obs.metrics import METRICS
from repro.tiling.cache import (
    TileConfigCache,
    TileConfigStore,
    cache_file_path,
    load_tile_cache,
)

#: spec fields that feed bundle or device construction — the complete
#: input of :meth:`RunContext.from_spec`'s design/device half
_DESIGN_FIELDS = (
    "design",
    "design_seed",
    "design_params",
    "blif_path",
    "channel_width",
    "device_overhead",
)


def design_digest(spec) -> str:
    """SHA-256 over the spec fields that determine bundle + device."""
    payload = {name: getattr(spec, name) for name in _DESIGN_FIELDS}
    blob = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()


def warm_key(spec) -> tuple:
    """The registry key: (design digest, device name, preset)."""
    return (design_digest(spec), spec.device or "auto", spec.preset)


def fork_bundle(bundle):
    """A fresh, mutation-safe bundle structurally equal to ``bundle``.

    The pipeline injects errors and observation logic into
    ``packed.netlist``, so the pristine warm copy can never be handed
    out directly.  Deep-copying the whole bundle via pickle overflows
    the recursion limit on real netlists (instance↔net cross-links);
    instead the fork re-derives the mutable half — copy the mapped
    netlist, re-pack it — which is deterministic, structurally
    identical, and far cheaper than a full generate → map → pack.
    """
    from repro.generators.registry import DesignBundle
    from repro.synth.pack import pack_netlist

    mapped = bundle.mapped.copy(bundle.mapped.name)
    packed = pack_netlist(mapped)
    return DesignBundle(
        name=bundle.name,
        netlist=bundle.netlist,
        mapped=mapped,
        packed=packed,
        paper_clbs=bundle.paper_clbs,
        kind=bundle.kind,
    )


class WarmEntry:
    """Resident artifacts for one (design digest, device, preset)."""

    def __init__(self, bundle, device, golden) -> None:
        #: pristine bundle — forked per job, never handed out directly
        self.bundle = bundle
        #: shared device object; carries the memoized ``_Fabric`` tables
        self.device = device
        #: shared read-only golden model; its compiled kernel is keyed
        #: by this object, so sharing it keeps the kernel warm
        self.golden = golden
        #: revision guard — the pipeline must never mutate the golden;
        #: if some future path does, the entry self-invalidates
        self.golden_revision = golden.revision
        self.uses = 0


class WarmRegistry:
    """LRU-bounded warm-state registry for one worker process.

    ``context_parts(spec)`` is the single integration point with the
    pipeline: it returns the ``bundle``/``device``/``golden`` keyword
    arguments :meth:`RunContext.from_spec` accepts, building (and
    caching) them on a miss and forking the bundle on every call.
    """

    def __init__(self, cache_dir: str | None = None,
                 max_entries: int = 8) -> None:
        self.cache_dir = cache_dir
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0
        self._entries: OrderedDict[tuple, WarmEntry] = OrderedDict()
        #: the worker-resident tile cache, warmed once from disk; every
        #: ``cache="shared"`` job reads and feeds it
        self.tile_cache = TileConfigCache()
        #: open store handle for incremental write-back
        self.store: TileConfigStore | None = None
        if cache_dir is not None:
            load_tile_cache(cache_dir, self.tile_cache)
            self.store = TileConfigStore(cache_file_path(cache_dir))

    def __len__(self) -> int:
        return len(self._entries)

    # -- entry lifecycle -----------------------------------------------

    def lookup(self, spec) -> tuple[WarmEntry, bool]:
        """The entry for ``spec`` and whether it was a warm hit."""
        key = warm_key(spec)
        entry = self._entries.get(key)
        if entry is not None and entry.golden.revision != entry.golden_revision:
            # something mutated the shared golden — stale, rebuild
            del self._entries[key]
            self.invalidations += 1
            entry = None
        if entry is not None:
            self._entries.move_to_end(key)
            self.hits += 1
            METRICS.inc("repro_warm_registry_hits_total")
            entry.uses += 1
            return entry, True
        self.misses += 1
        METRICS.inc("repro_warm_registry_misses_total")
        entry = WarmEntry(*design_parts(spec))
        entry.uses += 1
        self._entries[key] = entry
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self.evictions += 1
            METRICS.inc("repro_warm_registry_evictions_total")
        return entry, False

    def would_hit(self, spec) -> bool:
        """Whether ``spec`` would hit warm (no counters touched)."""
        entry = self._entries.get(warm_key(spec))
        return (entry is not None
                and entry.golden.revision == entry.golden_revision)

    def context_parts(self, spec) -> dict:
        """``RunContext.from_spec`` keyword arguments for ``spec``."""
        entry, _ = self.lookup(spec)
        return {
            "bundle": fork_bundle(entry.bundle),
            "device": entry.device,
            "golden": entry.golden,
        }

    # -- tile cache ----------------------------------------------------

    def write_back(self) -> int:
        """Persist new tile configs to the store (0 without a store)."""
        if self.store is None:
            return 0
        return self.store.write_back(self.tile_cache)

    # -- introspection -------------------------------------------------

    def stats(self) -> dict:
        return {
            "entries": len(self._entries),
            "max_entries": self.max_entries,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
            "tile_cache": self.tile_cache.stats(),
        }

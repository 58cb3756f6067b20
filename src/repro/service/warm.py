"""Per-worker warm-state registry — the daemon's resident artifacts.

A cold :func:`~repro.api.pipeline.run_spec` rebuilds, per call, the
design bundle, the device and a golden model whose compiled kernel is
keyed per netlist object, and — when a ``cache_dir`` is set — loads the
whole tile-config store.  In a long-lived service worker all of that is
reusable.

One :class:`WarmRegistry` lives in each worker process.  Its design
half is a :class:`~repro.api.design.DesignMemo` (the same memo a
thread-executor campaign holds): bundle forks, the shared device and
golden, and the golden traces, keyed by design digest, device and
preset.  The registry adds what only a long-lived worker has: one
:class:`TileConfigCache` warmed once from the daemon's ``--cache-dir``
(``cache="shared"`` jobs get it via
:func:`~repro.api.pipeline.resolve_tile_cache`) and its open
:class:`~repro.tiling.cache.TileConfigStore` handle.

Everything here is a cache, never a semantic input: a hit must produce
results exactly equal to a cold run, and the service bit-identity tests
hold it to that.
"""

from __future__ import annotations

from repro.api.design import MEMO_ENTRIES, DesignMemo
from repro.tiling.cache import (
    TileConfigCache,
    TileConfigStore,
    cache_file_path,
    load_tile_cache,
)


class WarmRegistry:
    """One worker's design memo, tile cache and store handle.

    ``designs`` is what ``run_spec(warm=...)`` takes.
    """

    def __init__(self, cache_dir: str | None = None,
                 max_entries: int = MEMO_ENTRIES) -> None:
        self.designs = DesignMemo(max_entries)
        #: the worker-resident tile cache, warmed once from disk; every
        #: ``cache="shared"`` job reads and feeds it
        self.tile_cache = TileConfigCache()
        #: open store handle for incremental write-back
        self.store: TileConfigStore | None = None
        if cache_dir is not None:
            load_tile_cache(cache_dir, self.tile_cache)
            self.store = TileConfigStore(cache_file_path(cache_dir))

    def write_back(self) -> int:
        """Persist new tile configs to the store (0 without a store)."""
        if self.store is None:
            return 0
        return self.store.write_back(self.tile_cache)

    def stats(self) -> dict:
        return dict(self.designs.stats(), tile_cache=self.tile_cache.stats())

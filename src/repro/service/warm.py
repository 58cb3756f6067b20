"""Per-worker warm-state registry — the daemon's resident artifacts.

A cold :func:`~repro.api.pipeline.run_spec` rebuilds, per call, the
design bundle, the device and a golden model whose compiled kernel is
keyed per netlist object, and — when a ``cache_dir`` is set — attaches
the tile-config store.  In a long-lived service worker all of that is
reusable.

One :class:`WarmRegistry` lives in each worker process.  Its design
half is a :class:`~repro.api.design.DesignMemo` (the same memo a
thread-executor campaign holds): bundle forks, the shared device and
golden, and the golden traces, keyed by design digest, device and
preset.  The registry adds what only a long-lived worker has: one
:class:`TileConfigCache` backed by the daemon's ``--cache-dir`` store
(``cache="shared"`` jobs get it via
:func:`~repro.api.pipeline.resolve_tile_cache`), which keeps every
entry it has read or computed in memory across jobs and writes back
through the attached store handle.

Everything here is a cache, never a semantic input: a hit must produce
results exactly equal to a cold run, and the service bit-identity tests
hold it to that.
"""

from __future__ import annotations

from repro.api.design import MEMO_ENTRIES, DesignMemo
from repro.tiling.cache import (
    TileConfigCache,
    load_tile_cache,
    save_tile_cache,
)


class WarmRegistry:
    """One worker's design memo and store-backed tile cache.

    ``designs`` is what ``run_spec(warm=...)`` takes.
    """

    def __init__(self, cache_dir: str | None = None,
                 max_entries: int = MEMO_ENTRIES) -> None:
        self.designs = DesignMemo(max_entries)
        self.cache_dir = cache_dir
        #: the worker-resident tile cache, backed by the store; every
        #: ``cache="shared"`` job reads and feeds it
        self.tile_cache = TileConfigCache()
        if cache_dir is not None:
            load_tile_cache(cache_dir, self.tile_cache)

    def write_back(self) -> int:
        """Persist new tile configs to the store (0 without a store)."""
        if self.cache_dir is None:
            return 0
        return save_tile_cache(self.tile_cache, self.cache_dir)

    def stats(self) -> dict:
        return dict(self.designs.stats(), tile_cache=self.tile_cache.stats())

"""repro.service — warm-start debug-as-a-service daemon.

The paper's pitch is fast turnaround: precomputed spare configurations
make the *next* debug iteration cheap.  This package extends that idea
from tile configs to every per-process artifact a cold ``run_spec``
pays for — compiled emulation kernels, ``_Fabric`` routing tables,
the open :class:`~repro.tiling.cache.TileConfigStore` — by keeping a pool of
long-lived worker processes resident behind a unix-socket daemon.

Layout:

* :mod:`repro.service.warm` — per-worker warm-state registry: the
  design memo of :mod:`repro.api.design` plus the resident tile cache.
* :mod:`repro.service.queue` — priority job queue with digest dedup
  and a crash-safe persistent spool.
* :mod:`repro.service.protocol` — newline-delimited JSON framing and
  verb shapes shared by daemon and client.
* :mod:`repro.service.worker` — the looping child process
  (``python -m repro.service.worker``).
* :mod:`repro.service.daemon` — the socket server + worker pool
  (``python -m repro serve``).
* :mod:`repro.service.client` — :class:`Client` python API backing
  ``python -m repro client``.

Warm state is a cache, never a semantic input: results are bit-identical
to a cold in-process :func:`~repro.api.pipeline.run_spec` on the same
spec (modulo timings and attempt metadata), which the service test
suite asserts field-for-field.
"""

from repro.api.design import design_digest
from repro.service.client import Client
from repro.service.daemon import ReproService, ServiceConfig
from repro.service.warm import WarmRegistry

__all__ = [
    "Client",
    "ReproService",
    "ServiceConfig",
    "WarmRegistry",
    "design_digest",
]

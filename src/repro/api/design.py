"""Design and device resolution shared by the facade and the drivers.

One place turns a :class:`~repro.api.spec.RunSpec` (or plain arguments)
into the front-end artifacts every downstream layer consumes: a
:class:`~repro.generators.registry.DesignBundle` and a
:class:`~repro.arch.device.Device` — and, through :func:`design_parts`,
the golden model a run compares against.  The experiment drivers in
:mod:`repro.analysis.experiments` resolve through the same functions,
so "which designs exist and how they are built" has a single source of
truth.

:class:`DesignMemo` memoizes :func:`design_parts` for callers that run
many specs on one design: a thread-executor campaign and each daemon
worker hold one.  Entries are keyed by :func:`warm_key` — the
:func:`design_digest` of every spec field that feeds bundle or device
construction, plus device and preset — and hold:

* the pristine bundle, never handed out: the pipeline injects errors
  and observation logic into ``packed.netlist``, so every run gets a
  :func:`fork_bundle` of it, a clone of its netlist and packing (the
  design is packed once, on the entry's build);
* the device, whose ``_Fabric`` routing tables stay warm;
* the read-only golden model, shared, so its compiled kernel (keyed by
  netlist object in :func:`~repro.netlist.compiled.kernel_for`) is
  lowered once, on the entry's first ``engine="compiled"`` lookup (an
  interpreted run never reads it); a revision guard drops the entry,
  traces included, if anything ever mutates it;
* the golden traces of the design's random stimuli, keyed by
  ``(n_cycles, n_patterns, seed, engine)``: a stimulus never depends on
  the error seed, so a sweep simulates each one once.

Everything here is a cache, never a semantic input: a run through the
memo must produce exactly the result of a run without it.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import threading
from collections import OrderedDict

from repro.arch.device import Device, DeviceSpec, XC4000_FAMILY, pick_device
from repro.errors import SpecError
from repro.generators.des import make_des
from repro.generators.fsm import make_fsm
from repro.generators.mips import make_mips
from repro.generators.random_logic import random_sequential_netlist
from repro.generators.registry import (
    DesignBundle, build_design, bundle_netlist,
)
from repro.netlist.compiled import kernel_for
from repro.netlist.core import Netlist
from repro.obs.metrics import METRICS

#: Generators that accept keyword parameters (``RunSpec.design_params``)
#: for non-registry variants — e.g. a reduced 2-round DES demo.
GENERATOR_BUILDERS = {
    "des": make_des,
    "mips": make_mips,
    "fsm": make_fsm,
    "random": random_sequential_netlist,
}


def load_bundle(spec) -> DesignBundle:
    """Resolve ``spec``'s design source into a :class:`DesignBundle`.

    Three sources, checked in order: a BLIF file (``blif_path``), a
    parameterized generator (``design`` + ``design_params``), or a
    registry benchmark (``design`` alone).
    """
    if spec.blif_path is not None:
        from repro.netlist.blif import read_blif

        try:
            with open(spec.blif_path) as fh:
                text = fh.read()
        except OSError as exc:
            raise SpecError(
                f"cannot read BLIF file {spec.blif_path!r}: {exc}"
            ) from exc
        netlist = read_blif(text, name=spec.design_label)
        return bundle_netlist(spec.design_label, netlist, kind="blif")
    if spec.design_params is not None:
        builder = GENERATOR_BUILDERS[spec.design]
        params = dict(spec.design_params)
        # every parameterizable generator takes a seed; the spec's
        # design_seed applies unless the params pin one explicitly
        params.setdefault("seed", spec.design_seed)
        netlist = builder(**params)
        return bundle_netlist(netlist.name, netlist, kind="custom")
    return build_design(spec.design, seed=spec.design_seed)


def design_parts(spec) -> tuple[DesignBundle, Device, Netlist]:
    """The ``(bundle, device, golden)`` a run of ``spec`` starts from.

    The golden model is an untouched copy of the packed netlist: the
    reference every detection, localization and proof compares against.
    """
    bundle = load_bundle(spec)
    packed = bundle.packed
    device = device_for(
        packed, device=spec.device,
        channel_width=spec.channel_width,
        area_overhead=spec.device_overhead,
    )
    golden = packed.netlist.copy(f"{packed.netlist.name}.golden")
    return bundle, device, golden


def device_by_name(name: str, channel_width: int | None = None) -> Device:
    """A family member by name, optionally with a channel override."""
    for family_spec in XC4000_FAMILY:
        if family_spec.name == name:
            if channel_width is not None:
                family_spec = DeviceSpec(
                    family_spec.name, family_spec.nx, family_spec.ny,
                    channel_width, family_spec.io_per_slot,
                )
            return Device(family_spec)
    raise SpecError(
        f"unknown device {name!r}; family members: "
        + ", ".join(s.name for s in XC4000_FAMILY)
    )


def device_for(packed, device: str | None = None,
               channel_width: int | None = None,
               area_overhead: float = 0.35,
               min_io_extra: int = 16) -> Device:
    """The device a spec implies: named member, or historical auto-pick."""
    if device is not None:
        return device_by_name(device, channel_width)
    return pick_device(
        packed.n_clbs,
        area_overhead=area_overhead,
        min_io=len(packed.io_blocks()) + min_io_extra,
        channel_width=channel_width,
    )


# ----------------------------------------------------------------------
# the design memo
# ----------------------------------------------------------------------

#: designs a campaign's memo keeps resident, least recently used first out
MEMO_ENTRIES = 8
#: golden traces kept per design: a run reads its base stimulus and,
#: when that never excites the error, the widened one
MEMO_TRACES = 4

#: spec fields that feed bundle or device construction — the complete
#: input of :func:`design_parts`
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
    """The memo key: (design digest, device name, preset)."""
    return (design_digest(spec), spec.device or "auto", spec.preset)


def fork_bundle(bundle: DesignBundle) -> DesignBundle:
    """A fresh, mutation-safe bundle structurally equal to ``bundle``.

    Deep-copying the whole bundle via pickle overflows the recursion
    limit on real netlists (instance↔net cross-links); instead the fork
    clones the mutable half: a :meth:`~repro.netlist.core.Netlist.copy`
    of the mapped netlist and a
    :meth:`~repro.synth.pack.PackedDesign.fork` of the packing over it,
    equal to re-packing the copy without running the packer.
    """
    mapped = bundle.mapped.copy(bundle.mapped.name)
    return dataclasses.replace(bundle, mapped=mapped,
                               packed=bundle.packed.fork(mapped))


class GoldenTraces:
    """One design's golden traces by stimulus key: LRU-bounded, locked.

    The memo's stand-in for a run's private trace dict
    (:meth:`~repro.api.pipeline.RunContext.golden_trace` reads both
    through ``get`` and item assignment).
    """

    def __init__(self) -> None:
        self.bound = MEMO_TRACES
        self._traces: OrderedDict = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._traces)

    def get(self, key):
        with self._lock:
            trace = self._traces.get(key)
            if trace is not None:
                self._traces.move_to_end(key)
            return trace

    def __setitem__(self, key, trace) -> None:
        with self._lock:
            self._traces[key] = trace
            while len(self._traces) > self.bound:
                self._traces.popitem(last=False)


class DesignEntry:
    """Resident artifacts for one :func:`warm_key`."""

    def __init__(self, bundle, device, golden) -> None:
        #: pristine bundle — forked per run, never handed out directly
        self.bundle = bundle
        self.device = device
        #: shared read-only golden model
        self.golden = golden
        #: revision guard: the pipeline must never mutate the golden
        self.golden_revision = golden.revision
        #: the golden's compiled kernel is lowered (set under the memo
        #: lock, so no compiled run reads a half-built kernel)
        self.kernel_ready = False
        self.traces = GoldenTraces()

    @property
    def stale(self) -> bool:
        return self.golden.revision != self.golden_revision


class DesignMemo:
    """LRU-bounded :func:`design_parts` memo, safe across threads.

    :meth:`context_parts` is the one integration point with the
    pipeline (:meth:`RunContext.from_spec`'s ``memo``).  Entries are
    built lazily, on a spec's first lookup, under a lock, and published
    only once their golden topological order exists; the golden kernel
    is lowered under the same lock before the first compiled lookup
    returns, so concurrent runs only ever read the shared golden.
    Lookups are counted under the ``repro_warm_registry_*`` metrics,
    the daemon registry's names.
    """

    def __init__(self, max_entries: int = MEMO_ENTRIES) -> None:
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0
        self._entries: OrderedDict[tuple, DesignEntry] = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(self, spec) -> tuple[DesignEntry, bool]:
        """The entry for ``spec`` and whether it was a hit."""
        key = warm_key(spec)
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None and entry.stale:
                del self._entries[key]
                self.invalidations += 1
                entry = None
            hit = entry is not None
            if hit:
                self._entries.move_to_end(key)
                self.hits += 1
                METRICS.inc("repro_warm_registry_hits_total")
            else:
                self.misses += 1
                METRICS.inc("repro_warm_registry_misses_total")
                bundle, device, golden = design_parts(spec)
                golden.topo_order()
                entry = DesignEntry(bundle, device, golden)
                self._entries[key] = entry
                while len(self._entries) > self.max_entries:
                    self._entries.popitem(last=False)
                    self.evictions += 1
                    METRICS.inc("repro_warm_registry_evictions_total")
            if spec.engine == "compiled" and not entry.kernel_ready:
                kernel_for(entry.golden)
                entry.kernel_ready = True
            return entry, hit

    def would_hit(self, spec) -> bool:
        """Whether ``spec`` would hit (no counters touched)."""
        entry = self._entries.get(warm_key(spec))
        return entry is not None and not entry.stale

    def context_parts(self, spec) -> tuple:
        """``(bundle fork, device, golden, traces)`` for one run."""
        entry, _ = self.lookup(spec)
        return (fork_bundle(entry.bundle), entry.device, entry.golden,
                entry.traces)

    def stats(self) -> dict:
        return {
            "entries": len(self._entries),
            "max_entries": self.max_entries,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
        }

"""The design memo is a pure cache.

A thread-executor campaign holds one :class:`~repro.api.design.DesignMemo`:
each design is built once, every run gets a fork of it plus the shared
golden model, and each golden stimulus is simulated once per design.
Whatever the worker count, a run through the memo must report exactly
what the same spec reports alone, with nothing reused.
"""

import sys
import threading

from perfbench.checks import comparable
from repro.api.campaign import CampaignRunner
from repro.api.design import DesignMemo
from repro.api.pipeline import run_spec
from repro.api.spec import RunSpec
from repro.obs.metrics import METRICS

BASE = dict(preset="fast", max_probes=6, cache="off")
TWO_FAULT = dict(n_errors=2, strategy="sat", correction="cegis",
                 verify="prove")

#: 9sym and s9234 runs covering every way a run reads the golden model:
#: a detected first stimulus (9sym 1, 3), the same error under another
#: stimulus seed, a widened stimulus (9sym 2, s9234 1), a two-fault
#: proof whose counterexample re-arms detection (9sym 10 on two pattern
#: words) and a localization drain (s9234 6)
MATRIX = [
    dict(design="9sym", error_seed=1),
    dict(design="9sym", error_seed=2),
    dict(design="9sym", error_seed=10, n_patterns=2, **TWO_FAULT),
    dict(design="9sym", error_seed=3),
    dict(design="9sym", error_seed=1, seed=3),
    dict(design="s9234", error_seed=1),
    dict(design="s9234", error_seed=6),
    dict(design="s9234", error_seed=2),
]


def _specs():
    return [RunSpec(**BASE, **kw) for kw in MATRIX]


def test_memo_runs_equal_runs_without_it():
    specs = _specs()
    alone = [comparable(run_spec(spec)) for spec in specs]
    serial = CampaignRunner(workers=1).run(specs).results
    threaded = CampaignRunner(workers=4).run(specs).results
    assert [comparable(r) for r in serial] == alone
    assert [comparable(r) for r in threaded] == alone
    # the matrix reaches what it claims to
    notes = [" ".join(r.notes) for r in serial]
    assert "widened" in notes[1] and "widened" in notes[5]
    assert "re-armed" in notes[2]
    assert serial[6].status == "failed"
    assert serial[6].failures[0]["error"] == "LocalizationDrained"


def test_golden_revision_bump_drops_the_entry_and_its_traces():
    memo = DesignMemo()
    spec = RunSpec(design="9sym", error_seed=2, **BASE)  # widens
    key = (spec.n_cycles, spec.n_patterns, spec.seed, spec.engine)
    first = run_spec(spec, warm=memo)
    entry, _ = memo.lookup(spec)
    trace = entry.traces.get(key)
    assert trace is not None and len(entry.traces) == 2  # base, widened
    # a second run simulates nothing new: it reads the same traces
    assert comparable(run_spec(spec, warm=memo)) == comparable(first)
    assert entry.traces.get(key) is trace and len(entry.traces) == 2
    # nothing may mutate the shared golden; if something does, the
    # entry is stale and goes, its traces with it
    entry.golden.add_net("memo_guard_probe")
    assert not memo.would_hit(spec)
    again = run_spec(spec, warm=memo)
    assert memo.invalidations == 1 and memo.misses == 2
    rebuilt, hit = memo.lookup(spec)
    assert hit and rebuilt is not entry
    assert rebuilt.traces.get(key) not in (None, trace)
    assert comparable(again) == comparable(first)


def test_concurrent_lookups_build_each_design_once():
    """More threads than cores, switching every microsecond: a lost
    update in the memo would build a design twice or hand two threads
    different entries for one key."""
    memo = DesignMemo()
    specs = [RunSpec(design="9sym", error_seed=1, **BASE),
             RunSpec(design="9sym", error_seed=1, device_overhead=0.55,
                     **BASE)]
    seen = [[] for _ in specs]

    def worker(index):
        for _ in range(5):
            for spec, entries in zip(specs, seen):
                entry, _ = memo.lookup(spec)
                entries.append(entry)
                entry.traces[index] = index

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(previous)
    assert not any(thread.is_alive() for thread in threads)
    assert memo.misses == 2 and memo.hits == 8 * 5 * 2 - 2
    for entries in seen:
        assert len(entries) == 40 and len({id(e) for e in entries}) == 1
        # every thread stored a trace; the bound held under contention
        assert len(entries[0].traces) == entries[0].traces.bound


def _full_compiles() -> float:
    return METRICS.counter_value("repro_kernel_compiles_total", kind="full")


def test_golden_kernel_is_lowered_only_for_compiled_runs():
    """An interpreted run never reads the golden's compiled kernel, so
    the memo lowers it on an entry's first compiled lookup only."""
    specs = [RunSpec(design="9sym", error_seed=s, engine="interpreted",
                     **BASE) for s in (1, 2, 3)]
    before = _full_compiles()
    CampaignRunner(workers=2).run(specs)
    assert _full_compiles() == before
    # one memo serving an interpreted run, then a compiled one
    memo = DesignMemo()
    interpreted = RunSpec(design="9sym", error_seed=1, engine="interpreted",
                          **BASE)
    compiled = RunSpec(design="9sym", error_seed=1, **BASE)
    assert (comparable(run_spec(interpreted, warm=memo))
            == comparable(run_spec(interpreted)))
    entry, _ = memo.lookup(interpreted)
    assert not entry.kernel_ready
    assert (comparable(run_spec(compiled, warm=memo))
            == comparable(run_spec(compiled)))
    assert entry.kernel_ready and memo.misses == 1

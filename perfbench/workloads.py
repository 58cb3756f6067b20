"""The four workloads: fixed run pools, rotated by the workload seed.

Each workload is a pool of ``(design, error_seed)`` pairs over one base
spec.  The pool is fixed, and the workload seed picks where the sweep
starts.  The error seed decides how much work a run does (a mips run
takes 1.6 s when its error is never excited and 5.4 s when it is) and
whether the run detects and localizes, so a pool drawn afresh per seed
would make wall time and the accuracy rates swing by more than any
useful bound.  The start matters where runs share a cache, since it
decides which runs come first and miss.  A rotation, unlike a shuffle,
keeps almost every run's predecessors, so per-run times move little
with the seed (a shuffle moved a campaign's median run time by 25%).
"""

from __future__ import annotations

from dataclasses import dataclass

#: layers the tiled single-fault loop always enters
_LOOP_LAYERS = (
    "build.load_bundle", "implement", "pnr.place", "pnr.route",
    "cache.key", "relayout", "commit", "emu.detect", "emu.golden",
    "emu.step", "emu.refresh", "localize", "correct",
)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: one fresh interpreter per run; otherwise one in-process
    #: ``CampaignRunner`` (thread executor, one worker) per pass
    fresh: bool
    #: RunSpec fields shared by every run
    base: tuple
    #: ``(design, error_seed)`` pairs, one run each per pass
    pool: tuple
    #: layers the traced pass must enter (a miss fails the benchmark)
    layers: tuple
    #: fill a tile-configuration store with one untimed run per spec
    #: before timing (``cache_dir`` points at it)
    warm_store: bool = False
    #: campaigns write back to a fresh, empty ``cache_dir`` each pass
    campaign_cache_dir: bool = False
    #: ROADMAP.md accuracy baseline of this pool's runs with an error
    #: seed in ``baseline_error_seeds``, per design:
    #: ``(design, (detected, localized, status failed))``
    accuracy_baseline: tuple = ()
    baseline_error_seeds: tuple = ()

    def specs(self, seed: int, cache_dir: str | None = None) -> list:
        """The pass's RunSpecs, the pool rotated to start at ``seed``."""
        from repro.api.spec import RunSpec

        base = dict(self.base)
        if self.warm_store:
            base["cache_dir"] = cache_dir
        specs = [RunSpec(design=design, error_seed=error_seed, **base)
                 for design, error_seed in self.pool]
        start = seed % len(specs)
        return specs[start:] + specs[:start]


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="cold_new_bug",
            why="a new bug on a big design from the CLI: fresh "
                "interpreter, nothing reused, P&R dominates",
            fresh=True,
            base=(("preset", "fast"),),
            pool=(("des", 1), ("des", 2), ("mips", 1), ("mips", 2)),
            layers=_LOOP_LAYERS,
        ),
        Workload(
            name="campaign_sweep",
            why="same design, new error seed: one campaign sharing a "
                "private cache, writing back to an empty cache_dir",
            fresh=False,
            base=(("preset", "fast"), ("cache", "private")),
            # s9234 runs outnumber the faster 9sym ones, so the median
            # run falls inside the s9234 times, not at the gap between
            # the two designs (where one run crossing over moves it 10%)
            pool=tuple(
                (design, error_seed)
                for design, last in (("9sym", 30), ("s9234", 50))
                for error_seed in range(1, last + 1)
            ) + (("mips", 1), ("mips", 2)),
            layers=_LOOP_LAYERS + ("persist.load", "persist.save"),
            campaign_cache_dir=True,
            accuracy_baseline=(("9sym", (18, 12, 0)), ("s9234", (9, 3, 5))),
            baseline_error_seeds=tuple(range(1, 31)),
        ),
        Workload(
            name="warm_rerun",
            why="re-running a finished session from the CLI: every P&R "
                "step replays from a filled store, emulation dominates",
            fresh=True,
            base=(("preset", "fast"), ("n_cycles", 64),
                  ("max_probes", 12)),
            pool=(("des", 1), ("mips", 2)),
            layers=("build.load_bundle", "implement", "pnr.replay",
                    "cache.key", "relayout", "commit", "emu.detect",
                    "emu.golden", "emu.step", "emu.refresh", "localize",
                    "correct", "persist.load", "persist.save"),
            warm_store=True,
        ),
        Workload(
            name="multi_fault",
            why="two faults through the SAT path: pruning, CEGIS repair "
                "and proof; the only workload that enters the sat layer",
            fresh=False,
            base=(("preset", "fast"), ("cache", "private"),
                  ("n_errors", 2), ("strategy", "sat"),
                  ("correction", "cegis"), ("verify", "prove")),
            pool=tuple(
                (design, error_seed)
                for design, seeds in (("9sym", range(1, 25)),
                                      ("s9234", range(1, 17)))
                for error_seed in seeds
            ),
            layers=("localize", "correct", "sat.solve", "sat.prune",
                    "sat.prove", "emu.detect", "commit"),
        ),
    )
}

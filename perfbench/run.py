"""The repo benchmark: the whole debug loop, end to end and per layer.

Run from the checkout root::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--trace 0`` reports the end-to-end
metrics, ``--trace 1`` the per-layer ones.  Details (per-design
accuracy, samples, layer self times, check verdicts) go to
``perfbench/out/<workload>-s<seed>-t<trace>.json``; a traced run also
writes its spans to ``perfbench/out/<workload>-s<seed>.trace.json``,
which ``python -m repro report <file>`` renders as a span tree.

Workloads
---------
Every run uses the compiled engine and ``preset="fast"``.  The pools
are in :mod:`perfbench.workloads`; the workload seed rotates them.

``cold_new_bug``
    A new bug on a big design, as a CLI user meets it: each run is a
    fresh interpreter running one default spec (tiled, shared in-memory
    cache, no ``cache_dir``) on des or mips.  Nothing is reused, so the
    initial P&R, the tiled relayout and fresh commits do most of the
    work; every tile-cache lookup misses, so the caching machinery
    shows its cost with no payoff.
``campaign_sweep``
    "Same design, new error seed": one in-process ``CampaignRunner``
    (thread executor, one worker) over 9sym error seeds 1-30, s9234
    error seeds 1-50 and two mips runs, sharing a campaign-local cache
    and writing back to a fresh, empty ``cache_dir``.  The mips runs
    miss on initial P&R and relayout; the small designs carry the
    accuracy signal (silent misses on 9sym, reconvergent-masking
    failures on s9234), and their per-design counts over error seeds
    1-30 are checked against the baseline in ROADMAP.md.
``warm_rerun``
    Re-running a finished debug session from the CLI: each run is a
    fresh interpreter re-running an identical long-stimulus spec
    (``n_cycles=64``, ``max_probes=12``) against a ``cache_dir`` filled
    during set-up.  Every P&R step replays from the store, so emulation
    does most of the work.
``multi_fault``
    The SAT path: an in-process campaign of two-fault runs (9sym error
    seeds 1-24, s9234 1-16) with ``strategy="sat"``,
    ``correction="cegis"``, ``verify="prove"``.  Solving, pruning and
    proofs take the largest share; without this workload the sat layer
    would go unmeasured.

The service daemon, the process executor and the codegen engine are not
exercised: the daemon wraps the same pipeline, and codegen is slated
for removal.

Reference seconds
-----------------
Every time below is in *reference seconds* (:mod:`perfbench.speed`):
the benchmark pins itself and its children to one CPU, samples that
CPU's pure-Python speed every 20 ms while a child runs, and scales
each timed interval by the mean speed sampled in it (to the power
``FOLLOW`` = 0.9, which :mod:`perfbench.speed` explains).  On a shared
host the CPU's speed swings by up to 2x for tens of seconds, which
moves plain wall time by 20-40% between identical runs; scaled, the
same runs agree within about 5%.  ``cpu_speed`` in the detail file is
the run's mean sampled speed (1.0: the reference CPU).

End-to-end metrics (untraced passes; closed loop, one client)
--------------------------------------------------------------
A *pass* runs the workload's pool once, in fresh interpreters: one per
run, or one per campaign.  A run repeats whole passes for
``--seconds`` (at least one), so every pass does identical work from
the same cold process state.

``wall_s``         median seconds per pass
``run_s_p50``      median seconds per run, spec in to result out
                   (fresh interpreters: from process launch); the
                   sample count is ``run_n`` in the detail file
``setup_s``        seconds from interpreter start until the first
                   pipeline begins: imports, cache load and
                   ``RunContext.from_spec`` (median over the passes'
                   processes, topped up to five samples with set-up
                   probes), plus filling ``warm_rerun``'s store
``peak_rss_mb``    largest peak RSS of the first pass's processes
``detected_rate``  detected runs / runs attempted
``localized_rate`` detected runs whose final candidates hold every
                   injected site / detected runs (recomputed here)
``pass_rate``      1 - fail_rate: runs that did not end ``failed`` or
                   ``timeout`` and passed the outcome checks / runs
                   attempted (``fail_rate`` reads 0 on most workloads,
                   and a metric must never read 0)

Per-layer metrics (one traced pass; ``_s`` busy seconds per run,
``_n`` count per run)
-----------------------------------------------------------------
The traced pass wraps each layer's public entry points in spans
(:mod:`perfbench.layers`); a child's span seconds are scaled by the
speed sampled over its life.  ``moves`` names the end-to-end metric the
layer should move; ``on`` the workloads where it is large (in
parentheses: where it is small).

========================  ==================================  =========================  ==========================
layer                     metrics (public call timed)         moves                      on
========================  ==================================  =========================  ==========================
generators+synth          build.load_bundle_s (load_bundle)   setup_s, run_s_p50         campaign_sweep, cold_new_bug
pnr                       pnr.place_s (place_design),         run_s_p50, wall_s          cold_new_bug, campaign_sweep
                          pnr.route_s (route_nets),                                      (warm_rerun)
                          pnr.place_moves,
                          pnr.route_expansions (effort)
pnr replay                pnr.replay_s (apply_region_config)  run_s_p50                  warm_rerun
debug.strategies/tiling   implement_s (build_initial),        run_s_p50, wall_s          cold_new_bug, campaign_sweep
                          relayout_s (prepare_for_debug),
                          commit_s, commit_n (apply_changeset)
tiling.cache              cache.key_s (full_pnr_key),         wall_s                     campaign_sweep
                          cache.hit_ratio, cache.rejected_n                              (cost only on cold_new_bug)
persistence               persist.load_s (load_tile_cache),   run_s_p50, wall_s          warm_rerun, campaign_sweep
                          persist.save_s (save_tile_cache),                              (cold_new_bug, multi_fault)
                          persist.store_bytes
debug.detect/emu/netlist  emu.detect_s (detect_on_layout),    run_s_p50                  warm_rerun (cold_new_bug)
                          emu.golden_s (ConeLocalizer init),
                          emu.step_s, emu.step_n (step),
                          emu.refresh_s (Emulator init and
                          refresh)
debug.localize            localize.self_s (ConeLocalizer.run  run_s_p50, localized_rate  warm_rerun, campaign_sweep
                          minus nested layer spans),
                          localize.probes_n,
                          localize.candidates_n
debug.correct             correct_s (apply_correction,        wall_s                     multi_fault
                          synthesize_lut_fix)
sat                       sat.solve_s, sat.solve_n (solve),   wall_s, run_s_p50          multi_fault (all others)
                          sat.conflicts_n (stats deltas),
                          sat.prune_s (SuspectPruner.prune),
                          sat.prove_s (prove_equivalence)
api glue                  api.unattributed_s (run wall minus  run_s_p50                  all
                          top-level layer spans)
bench                     trace.overhead_pct (traced vs       none (validity check)      all
                          untraced pass wall)
========================  ==================================  =========================  ==========================

Outcome checks (:mod:`perfbench.checks`) run on every untraced run,
and a traced pass must reproduce its untraced twin.  A failed check
counts against ``pass_rate``, sets ``correct`` false and makes the
command exit non-zero; ``failed`` in the result line counts failed
checks.  Runs the program itself reports as ``failed`` or ``timeout``
(s9234's reconvergent-masking drains) are accuracy outcomes: they show
in ``pass_rate`` and the detail file's ``fail_rate``, not in
``failed``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"

# run as a script, this file's directory (not the checkout) heads sys.path
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))
from perfbench.speed import Samples, pin_to_one_cpu, watch  # noqa: E402

#: fewest set-up samples a run reports the median of (workloads with
#: fewer runs add ``--setup-only`` probes)
SETUP_PROBES = 5
#: a child run that takes longer than this is killed
CHILD_TIMEOUT_S = 170

#: metric name -> (unit, which direction is better)
END_TO_END = {
    "wall_s": ("s", "lower"), "run_s_p50": ("s", "lower"),
    "setup_s": ("s", "lower"), "peak_rss_mb": ("MB", "lower"),
    "detected_rate": ("ratio", "higher"),
    "localized_rate": ("ratio", "higher"),
    "pass_rate": ("ratio", "higher"),
}
PER_LAYER = {
    name: (unit, "higher" if name == "cache.hit_ratio" else "lower")
    for name, unit in (
        ("build.load_bundle_s", "s"), ("pnr.place_s", "s"),
        ("pnr.route_s", "s"), ("pnr.place_moves", "count"),
        ("pnr.route_expansions", "count"), ("pnr.replay_s", "s"),
        ("implement_s", "s"), ("relayout_s", "s"), ("commit_s", "s"),
        ("commit_n", "count"), ("cache.key_s", "s"),
        ("cache.hit_ratio", "ratio"), ("cache.rejected_n", "count"),
        ("persist.load_s", "s"), ("persist.save_s", "s"),
        ("persist.store_bytes", "bytes"), ("emu.detect_s", "s"),
        ("emu.golden_s", "s"), ("emu.step_s", "s"),
        ("emu.step_n", "count"), ("emu.refresh_s", "s"),
        ("localize.self_s", "s"), ("localize.probes_n", "count"),
        ("localize.candidates_n", "count"), ("correct_s", "s"),
        ("sat.solve_s", "s"), ("sat.solve_n", "count"),
        ("sat.conflicts_n", "count"), ("sat.prune_s", "s"),
        ("sat.prove_s", "s"), ("api.unattributed_s", "s"),
        ("trace.overhead_pct", "%"),
    )
}
#: layers whose call count is a metric (``<layer>_n``); every layer's
#: busy seconds are one (``<layer>_s``), except that ``localize``
#: reports its self time
CALL_LAYERS = ("commit", "emu.step", "sat.solve")


class BenchError(RuntimeError):
    """The benchmark itself could not run (not a measured outcome)."""


@dataclass
class Pass:
    """One run of the workload's pool."""

    results: list = field(default_factory=list)
    run_s: list = field(default_factory=list)
    setup_s: list = field(default_factory=list)
    #: held-out replay verdicts, parallel to ``results``
    replay: list = field(default_factory=list)
    wall_s: float = 0.0
    rss_mb: float = 0.0
    cache: dict | None = None
    store_bytes: int = 0
    layers: dict | None = None
    #: per-process Chrome trace files of a traced pass (which skips
    #: the replay check: it is compared with its untraced twin instead)
    trace_dir: str | None = None


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT), str(ROOT / "src")])
    # the same dict and set layouts in every child, so one run's memory
    # access pattern repeats
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(specs, scratch: str, samples: Samples,
              *args) -> tuple[dict, float]:
    """Run :mod:`perfbench.child` on ``specs``, sampling the CPU's speed
    into ``samples`` meanwhile; ``(output, launch)`` where ``launch`` is
    the ``time.monotonic()`` stamp of the launch."""
    fd, path = tempfile.mkstemp(suffix=".json", prefix="specs-",
                                dir=scratch)
    with os.fdopen(fd, "w") as fh:
        json.dump([spec.to_dict() for spec in specs], fh)
    # output goes to files: a full pipe would stall the child while
    # this process samples instead of reading
    with open(path + ".out", "w+") as out, open(path + ".err", "w+") as err:
        launch = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, "-m", "perfbench.child", path, *args],
            cwd=ROOT, env=child_env(), stdout=out, stderr=err, text=True,
        )
        try:
            code = watch(proc, samples, launch + CHILD_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
        out.seek(0)
        err.seek(0)
        if code != 0:
            raise BenchError(
                f"child run of {len(specs)} spec(s) exited {code}:"
                f"\n{err.read()[-2000:]}"
            )
        return json.loads(out.read().strip().splitlines()[-1]), launch


def dir_bytes(path) -> int:
    return sum(
        os.path.getsize(os.path.join(root, name))
        for root, _, names in os.walk(path) for name in names
    )


def _absorb(into: Pass, out: dict, launch: float, samples: Samples) -> None:
    from repro.api.result import RunResult

    into.results += [RunResult.from_dict(r) for r in out["results"]]
    into.replay += out["replay"]
    into.setup_s.append(samples.seconds(launch, out["pipeline_start"]))
    into.rss_mb = max(into.rss_mb, out["rss_mb"])


def scaled_summary(out: dict, launch: float, samples: Samples) -> dict:
    """A traced child's layer summary with its seconds in reference
    seconds (scaled by the speed sampled over the child's life)."""
    factor = samples.factor(launch, out["result_ready"])
    summary = out["layers"]
    for entry in [*summary["layers"].values(), summary["runs"]]:
        for key in entry:
            if key.endswith("_s"):
                entry[key] *= factor
    return summary


def fresh_pass(specs, scratch: str, samples: Samples,
               trace_dir: str | None = None) -> Pass:
    """Each spec in its own interpreter, one after another; a run is
    timed from its process launch to its result."""
    from perfbench.layers import merge_summaries

    done = Pass(trace_dir=trace_dir)
    summaries = []
    cache = {"hits": 0, "misses": 0, "rejected": 0}
    for i, spec in enumerate(specs):
        args = ("--trace", os.path.join(trace_dir, f"{i}.json")) \
            if trace_dir else ()
        out, launch = run_child([spec], scratch, samples, *args)
        _absorb(done, out, launch, samples)
        done.run_s.append(samples.seconds(launch, out["result_ready"]))
        for key in cache:
            cache[key] += (out["cache"] or {}).get(key, 0)
        if trace_dir:
            summaries.append(scaled_summary(out, launch, samples))
    # run after run, launch to result: a child's replay check and trace
    # export happen after its result and are not the program's time
    done.wall_s = sum(done.run_s)
    looked = cache["hits"] + cache["misses"]
    done.cache = dict(cache, hit_rate=cache["hits"] / looked if looked
                      else 0.0)
    if specs[0].cache_dir:
        done.store_bytes = dir_bytes(specs[0].cache_dir)
    if trace_dir:
        done.layers = merge_summaries(summaries)
    return done


def campaign_pass(specs, scratch: str, samples: Samples,
                  cache_dir: str | None,
                  trace_dir: str | None = None) -> Pass:
    """One campaign in one fresh interpreter; the pass's wall time is
    the campaign's, its runs are timed at their ``run_spec`` call, and
    the replay checks inside them are not counted."""
    args = ["--campaign"]
    if cache_dir:
        args += ["--cache-dir", cache_dir]
    if trace_dir:
        args += ["--trace", os.path.join(trace_dir, "0.json")]
    out, launch = run_child(specs, scratch, samples, *args)
    done = Pass(trace_dir=trace_dir)
    _absorb(done, out, launch, samples)

    def seconds(a: float, b: float) -> float:
        return samples.seconds(a, b) - sum(
            samples.seconds(c, d) for c, d in out["checks"]
            if a <= c and d <= b)

    done.run_s = [seconds(a, b) for a, b in out["runs"]]
    done.wall_s = seconds(*out["campaign"])
    done.cache = out["cache"]
    if trace_dir:
        done.layers = scaled_summary(out, launch, samples)
    if cache_dir:
        done.store_bytes = dir_bytes(cache_dir)
    return done


class Bench:
    """One invocation: a workload, a seed, traced or not."""

    def __init__(self, workload, seed: int, seconds: float,
                 out_dir: Path = OUT) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.out_dir = Path(out_dir)
        self.scratch = ""
        self.specs: list = []
        self.fill_s = 0.0
        self.samples = Samples()
        #: what the run wrote to its detail file
        self.detail: dict = {}

    # -- passes --------------------------------------------------------

    def set_up(self) -> None:
        """Scratch space, the pass's specs and, when asked, a filled
        tile-configuration store."""
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.scratch = tempfile.mkdtemp(prefix="run-", dir=self.out_dir)
        store = os.path.join(self.scratch, "store")
        self.specs = self.workload.specs(self.seed, cache_dir=store)
        if self.workload.warm_store:
            for spec in self.specs:
                _, launch = run_child([spec], self.scratch, self.samples)
                self.fill_s += self.samples.seconds(launch, time.monotonic())

    def one_pass(self, traced: bool = False) -> Pass:
        trace_dir = None
        if traced:
            trace_dir = tempfile.mkdtemp(prefix="trace-", dir=self.scratch)
        if self.workload.fresh:
            return fresh_pass(self.specs, self.scratch, self.samples,
                              trace_dir)
        cache_dir = None
        if self.workload.campaign_cache_dir:
            cache_dir = tempfile.mkdtemp(prefix="cache-", dir=self.scratch)
        return campaign_pass(self.specs, self.scratch, self.samples,
                             cache_dir, trace_dir)

    def timed_passes(self) -> list[Pass]:
        """Whole passes for ``seconds``: at least one, and another only
        while it is expected to end within the budget."""
        passes = []
        t0 = last = time.monotonic()
        while True:
            passes.append(self.one_pass())
            now = time.monotonic()
            if now - t0 + (now - last) > self.seconds:
                return passes
            last = now

    # -- reporting -----------------------------------------------------

    def outcomes(self, passes) -> dict:
        """Accuracy and check verdicts over every run of ``passes``."""
        from perfbench.checks import outcome_problems, recomputed_localized

        attempted = detected = localized = tool_failed = 0
        problems = []
        # every run, and the runs the accuracy baseline covers
        per_design: dict = {}
        baseline: dict = {}
        for done in passes:
            for spec, result, replay in zip(self.specs, done.results,
                                            done.replay):
                attempted += 1
                found = recomputed_localized(result)
                run_failed = result.status in ("failed", "timeout")
                detected += result.detected
                localized += found
                tool_failed += run_failed
                tables = [per_design]
                if spec.error_seed in self.workload.baseline_error_seeds:
                    tables.append(baseline)
                for table in tables:
                    row = table.setdefault(
                        spec.design, {"runs": 0, "detected": 0,
                                      "localized": 0, "failed": 0})
                    row["runs"] += 1
                    row["detected"] += result.detected
                    row["localized"] += found
                    row["failed"] += run_failed
                if done.trace_dir is None:
                    problems += [
                        f"{spec.design} error_seed {spec.error_seed}: {why}"
                        for why in outcome_problems(result, replay)
                    ]
        n_passes = max(1, len(passes))
        for table in (per_design, baseline):
            for row in table.values():
                for key in row:
                    row[key] //= n_passes
        return {
            "attempted": attempted, "detected": detected,
            "localized": localized, "tool_failed": tool_failed,
            "problems": problems, "per_design": per_design,
            "baseline": baseline,
        }

    def accuracy_vs_baseline(self, baseline: dict) -> dict:
        """Per-design accuracy against the pool's ROADMAP.md baseline
        (reported, not enforced: accuracy work is meant to move it)."""
        report = {}
        for design, expected in self.workload.accuracy_baseline:
            row = baseline[design]
            seen = (row["detected"], row["localized"], row["failed"])
            report[design] = {"baseline": list(expected),
                              "measured": list(seen),
                              "match": seen == expected}
        return report

    def end_to_end(self, passes, outcome) -> dict:
        run_s = [s for p in passes for s in p.run_s]
        setup = [s for p in passes for s in p.setup_s]
        while len(setup) < SETUP_PROBES:
            out, launch = run_child(self.specs[:1], self.scratch,
                                    self.samples, "--setup-only")
            setup.append(self.samples.seconds(launch, out["pipeline_start"]))
        attempted = outcome["attempted"]
        detected = outcome["detected"]
        failed = outcome["tool_failed"] + len(outcome["problems"])
        return {
            "wall_s": statistics.median(p.wall_s for p in passes),
            "run_s_p50": statistics.median(run_s),
            "setup_s": statistics.median(setup) + self.fill_s,
            "peak_rss_mb": passes[0].rss_mb,
            "detected_rate": detected / attempted,
            "localized_rate": (outcome["localized"] / detected
                               if detected else 0.0),
            "pass_rate": 1.0 - failed / attempted,
        }

    def per_layer(self, untraced: Pass, traced: Pass) -> tuple[dict, dict]:
        """Per-run layer metrics and the self-time table of a traced
        pass (``untraced`` prices the tracing overhead)."""
        n = len(traced.results)
        layers = traced.layers["layers"]
        runs = traced.layers["runs"]
        metrics = {f"{layer}_s": entry["busy_s"] / n
                   for layer, entry in layers.items() if layer != "localize"}
        metrics.update({f"{layer}_n": layers[layer]["calls"] / n
                        for layer in CALL_LAYERS})
        effort = [r.effort for r in traced.results]
        metrics.update({
            "pnr.place_moves": sum(
                e[k]["place_moves"] for e in effort for k in e) / n,
            "pnr.route_expansions": sum(
                e[k]["route_expansions"] for e in effort for k in e) / n,
            "cache.hit_ratio": (traced.cache or {}).get("hit_rate", 0.0),
            "cache.rejected_n": (traced.cache or {}).get("rejected", 0) / n,
            "persist.store_bytes": traced.store_bytes,
            "localize.self_s": layers["localize"]["self_s"] / n,
            "localize.probes_n": sum(r.n_probes for r in traced.results) / n,
            "localize.candidates_n": sum(
                len(r.candidates) for r in traced.results) / n,
            "sat.conflicts_n": layers["sat.solve"]["conflicts"] / n,
            "api.unattributed_s": runs["unattributed_s"] / n,
            "trace.overhead_pct":
                100.0 * (traced.wall_s - untraced.wall_s) / untraced.wall_s,
        })
        # per run, largest self time first; shares are of run wall time
        wall = runs["wall_s"] or 1.0
        table = {
            layer: {
                "busy_s": round(entry["busy_s"] / n, 6),
                "self_s": round(entry["self_s"] / n, 6),
                "calls": entry["calls"] / n,
                "self_share": round(entry["self_s"] / wall, 4),
            }
            for layer, entry in sorted(
                layers.items(), key=lambda kv: -kv[1]["self_s"])
        }
        table["api.unattributed"] = {
            "self_s": round(runs["unattributed_s"] / n, 6),
            "self_share": round(runs["unattributed_s"] / wall, 4),
        }
        return metrics, table

    def detail_path(self, trace: bool) -> Path:
        return self.out_dir / (
            f"{self.workload.name}-s{self.seed}-t{int(trace)}.json")

    def merge_traces(self, trace_dir: str, path: Path) -> None:
        """One Chrome trace from the traced pass's per-process files."""
        events: list = []
        for name in sorted(os.listdir(trace_dir)):
            with open(os.path.join(trace_dir, name)) as fh:
                events += json.load(fh)["traceEvents"]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms",
                       "otherData": {"workload": self.workload.name,
                                     "seed": self.seed}}, fh)

    def run(self, trace: bool) -> tuple[dict, list]:
        """Measure, check and write the detail file; returns the result
        line and the failed checks."""
        from perfbench.checks import parity_problems
        from perfbench.layers import missing_layers

        self.set_up()
        try:
            self.detail = detail = {
                "workload": self.workload.name, "seed": self.seed,
                "trace": int(trace), "fill_s": self.fill_s,
            }
            if trace:
                untraced = self.one_pass()
                traced = self.one_pass(traced=True)
                passes = [untraced, traced]
                trace_path = self.out_dir / (
                    f"{self.workload.name}-s{self.seed}.trace.json")
                self.merge_traces(traced.trace_dir, trace_path)
                metrics, table = self.per_layer(untraced, traced)
                units = PER_LAYER
                extra = parity_problems(untraced.results, traced.results)
                extra += [
                    f"traced pass never entered layer {layer}"
                    for layer in missing_layers(traced.layers,
                                                self.workload.layers)
                ]
                detail.update(trace_file=str(trace_path),
                              layer_self_times=table)
            else:
                passes = self.timed_passes()
                extra = []
            outcome = self.outcomes(passes)
            problems = outcome["problems"] + extra
            if not trace:
                metrics = self.end_to_end(passes, outcome)
                units = END_TO_END
                detail.update(
                    run_n=sum(len(p.run_s) for p in passes),
                    passes=len(passes),
                    pass_wall_s=[p.wall_s for p in passes],
                    run_s=[s for p in passes for s in p.run_s],
                    fail_rate=1.0 - metrics["pass_rate"],
                )
            detail.update(
                cpu_speed=self.samples.mean(),
                per_design=outcome["per_design"],
                accuracy_vs_baseline=self.accuracy_vs_baseline(
                    outcome["baseline"]),
                problems=problems,
            )
            line = {
                "correct": not problems,
                "attempted": outcome["attempted"],
                "failed": len(problems),
                "metrics": {name: {"value": metrics[name], "unit": unit}
                            for name, (unit, _) in units.items()},
            }
            detail["result"] = line
            with open(self.detail_path(trace), "w", encoding="utf-8") as fh:
                json.dump(detail, fh, indent=1, sort_keys=True)
            return line, problems
        finally:
            shutil.rmtree(self.scratch, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # the program under test is the checkout's own source tree, never
    # an installed copy
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    for path in (str(ROOT / "src"), str(ROOT)):
        if path not in sys.path:
            sys.path.insert(0, path)
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; known: "
              + ", ".join(WORKLOADS), file=sys.stderr)
        return 2
    # the speed probe must sample the CPU the children run on
    pin_to_one_cpu()
    bench = Bench(workload, args.seed, args.seconds)
    line, problems = bench.run(bool(args.trace))
    if args.trace:
        print(f"{'layer':<20} {'self s/run':>11} {'share':>7}")
        for layer, entry in bench.detail["layer_self_times"].items():
            if entry["self_s"] > 0:
                print(f"{layer:<20} {entry['self_s']:>11.4f} "
                      f"{entry['self_share']:>7.1%}")
    for problem in problems:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

"""Performance benchmark: simulation engines and the commit path.

Measures, per design:

* **simulation throughput** — pattern-cycles/second of the sequential
  simulator under each engine (identical outputs asserted);
* **localization wall-clock** — a full detect→localize campaign under
  each engine (interpreted, compiled); the localization *compute* time
  (seed + probe picking + emulation, excluding the P&R commits) is
  reported per probe, with the speedup and a bit-identical check on
  every probe verdict and the final candidates;
* **commit phase** — the per-probe-round place-and-route cost.  The
  interpreted campaign runs against a cleared tile-configuration cache
  (cold: every commit pays the fresh hot-loop P&R), the compiled
  campaign re-presents the identical commits and replays precomputed
  configurations (warm).  Reported: seconds per commit cold/warm, warm
  cache hit rate, ``commit_speedup`` (cold/warm), and a routed-legality
  check of the final warm layout;
* **formal verify** — a corrected-vs-golden miter per output cone
  (:func:`repro.sat.equiv.prove_equivalence`) on the finished compiled
  campaign: miter build and solve seconds, the proof verdict, and how
  many outputs collapsed structurally before the solver ran;
* **multi-error loop** — a two-fault campaign through the
  diagnose→fix→re-detect round loop with ``verify="prove"``: rounds
  taken, probes and retired observation points per round, SAT
  eliminations per round (``"sat"`` strategy), and the final
  fixed/proved verdicts;
* **service warm-start** — the same spec submitted twice to a private
  debug-service daemon (:mod:`repro.service`): cold submission pays
  every per-process cost, warm must hit the worker's warm registry,
  answer bit-identically, and land ``service_warm_speedup`` >= 2x;
* **observability overhead** — the largest design's campaign with and
  without an armed :class:`~repro.obs.trace.Tracer`, measured as
  ``OBS_OVERHEAD_PAIRS`` interleaved plain/traced pairs; the median
  paired overhead must stay within ``OBS_OVERHEAD_LIMIT_PCT`` and every
  armed run must answer bit-identically.

Results land in ``BENCH_perf.json``; every run also *appends* a
timestamped summary to the file's ``history`` list, so the perf
trajectory accumulates across PRs instead of being overwritten.  Each
summary records ``src_lines``, the line count of the Python sources
under ``src/``, so the history also tracks the code's size.
Run with::

    PYTHONPATH=src python benchmarks/bench_perf.py \
        [--designs s9234,mips,des] [--out BENCH_perf.json] [--quick]

``--quick`` benches only the smallest design with a reduced probe
budget — the CI smoke configuration.

Acceptance gates (checked at the end, non-zero exit on failure):

* >=5x localization-compute speedup on the largest benchmarked design;
* >=2x commit-phase speedup (cold/warm) on the largest design;
* >2.5x end-to-end campaign speedup on ``des`` whenever it is benched;
* >=2x warm-vs-cold submission latency through the debug service
  (``service_warm``) on the largest design, with the second submission
  hitting the worker's warm registry and the results bit-identical;
* a routed-legal final layout on the largest design (``routed_legal``);
* a fixed and proved two-fault run on every design
  (``multi_error_fixed``);
* <5% median paired wall-clock overhead with tracing armed
  (``obs_overhead``).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import sys
import time

from repro.api import DebugPipeline, RunContext, RunResult, RunSpec
from repro.debug.testgen import random_stimulus
from repro.errors import DebugFlowError
from repro.generators import build_design
from repro.netlist.simulate import SequentialSimulator
from repro.pnr.flow import layout_legality_errors
from repro.tiling.cache import TileConfigCache

DEFAULT_DESIGNS = ("s9234", "mips", "des")
QUICK_DESIGNS = ("s9234",)
#: error seeds chosen so each design's campaign detects and probes
ERROR_SEEDS = {"s9234": 3, "mips": 2, "des": 1}
#: error seeds whose two-fault injection detects on each design
MULTI_ERROR_SEEDS = {"s9234": 4, "mips": 1, "des": 1, "9sym": 6}
#: the "sat" strategy's cardinality-k pruner is benched on designs
#: small enough for the all-instances relaxation
MULTI_SAT_DESIGNS = {"s9234", "9sym"}
ENGINES = ("interpreted", "compiled")

SPEEDUP_TARGET = 5.0
COMMIT_SPEEDUP_TARGET = 2.0
CAMPAIGN_SPEEDUP_TARGET = 2.5
SERVICE_WARM_TARGET = 2.0
#: armed tracing may cost at most this much wall-clock over disarmed
OBS_OVERHEAD_LIMIT_PCT = 5.0
#: interleaved plain/traced pairs the overhead gate takes the median of
OBS_OVERHEAD_PAIRS = 15


def bench_sim_throughput(
    design: str, n_cycles: int = 24, n_patterns: int = 64, seed: int = 1
) -> dict:
    """Pattern-cycles/sec of the sequential simulator, both engines."""
    bundle = build_design(design)
    netlist = bundle.mapped
    stimulus = random_stimulus(netlist, n_cycles, n_patterns, seed=seed)
    out = {"n_instances": len(netlist)}
    outputs = {}
    for engine in ENGINES:
        sim = SequentialSimulator(netlist, engine=engine)
        # warm untimed: the first cycle pays any lazy set-up, so
        # throughput is the steady state
        sim.reset(n_patterns)
        sim.run(stimulus[:1], n_patterns)
        sim.reset(n_patterns)
        t0 = time.perf_counter()
        outputs[engine] = sim.run(stimulus, n_patterns)
        dt = time.perf_counter() - t0
        out[engine] = {
            "seconds": dt,
            "pattern_cycles_per_sec": n_cycles * n_patterns / dt,
        }
    assert outputs["interpreted"] == outputs["compiled"], (
        f"{design}: compiled disagrees with interpreted simulation"
    )
    out["identical_outputs"] = True
    out["speedup"] = (
        out["compiled"]["pattern_cycles_per_sec"]
        / out["interpreted"]["pattern_cycles_per_sec"]
    )
    return out


def _localization_campaign(design: str, engine: str, error_seed: int,
                           max_probes: int, cache: TileConfigCache):
    """One detect→localize→correct campaign; fresh design per engine.

    Driven through the :mod:`repro.api` pipeline.  Context
    materialization (design build, strategy construction) stays outside
    the timed region, matching the historical ``session.run`` timing.
    """
    spec = RunSpec(
        design=design, strategy="tiled", seed=1, preset="fast",
        engine=engine, error_kind="table_bit", error_seed=error_seed,
        max_probes=max_probes,
    )
    ctx = RunContext.from_spec(spec, tile_cache=cache)
    t0 = time.perf_counter()
    DebugPipeline().execute(ctx)
    total = time.perf_counter() - t0
    return RunResult.from_context(ctx, wall_seconds=total), ctx


def bench_localization(design: str, error_seed: int,
                       max_probes: int = 12) -> dict:
    out: dict = {}
    results: dict[str, RunResult] = {}
    contexts = {}
    # the interpreted campaign runs cold (fresh cache); the compiled
    # campaign re-presents the identical commit sequence and replays the
    # precomputed configurations — the commit-phase comparison
    cache = TileConfigCache()
    for engine in ENGINES:
        result, ctx = _localization_campaign(
            design, engine, error_seed, max_probes, cache
        )
        results[engine] = result
        contexts[engine] = ctx
        if not result.probe_trajectory:
            raise DebugFlowError(
                f"{design}: error seed {error_seed} produced no probes; "
                "pick a different ERROR_SEEDS entry"
            )
        out[engine] = {
            "campaign_seconds": result.wall_seconds,
            "n_probes": result.n_probes,
            "n_candidates": len(result.candidates),
            "localization_seconds": result.localization_seconds,
            "seconds_per_probe": (
                result.localization_seconds / result.n_probes
            ),
            "timings": dict(result.timings["localization"]),
            "commit_cache_hits": result.n_commit_cache_hits,
        }

    ri = results["interpreted"]
    rc = results["compiled"]
    assert ri.trajectory_key() == rc.trajectory_key(), (
        f"{design}: compiled probe trajectory diverges"
    )
    assert ri.candidates == rc.candidates, (
        f"{design}: compiled final candidate set diverges"
    )
    out["identical_results"] = True
    out["speedup"] = (
        ri.localization_seconds / rc.localization_seconds
    )
    out["campaign_speedup"] = (
        out["interpreted"]["campaign_seconds"]
        / out["compiled"]["campaign_seconds"]
    )

    # ---- commit phase: cold (fresh P&R) vs warm (replayed configs) ----
    cold = ri.commit_seconds
    warm = rc.commit_seconds
    n_commits = rc.n_commits
    warm_hits = rc.n_commit_cache_hits
    out["commit_phase"] = {
        "n_commits": n_commits,
        "cold_seconds": round(cold, 6),
        "warm_seconds": round(warm, 6),
        "seconds_per_commit_cold": round(cold / max(1, n_commits), 6),
        "seconds_per_commit_warm": round(warm / max(1, n_commits), 6),
        "warm_cache_hits": warm_hits,
        "warm_cache_hit_rate": warm_hits / max(1, n_commits),
        "commit_speedup": cold / warm if warm > 0 else float("inf"),
        # region commits run non-strict, so capacity is reported by the
        # gate only through the overuse-allowance check at replay time
        "routed_legal": not layout_legality_errors(
            contexts["compiled"].strategy.layout, check_capacity=False
        ),
    }

    # ---- formal verify: per-output-cone miter on the corrected DUT ----
    out["formal_verify"] = bench_formal_verify(contexts["compiled"])
    return out


def bench_formal_verify(ctx, frames: int = 8) -> dict:
    """Bounded-equivalence proof of the campaign's corrected netlist."""
    from repro.sat.equiv import prove_equivalence

    proof = prove_equivalence(
        ctx.packed.netlist, ctx.golden, frames=frames, seed=1
    )
    return {
        "frames": frames,
        "proved": proof.proved,
        "n_outputs": len(proof.outputs),
        "n_structural": proof.n_structural,
        "n_vars": proof.n_vars,
        "n_clauses": proof.n_clauses,
        "build_seconds": round(proof.build_seconds, 6),
        "solve_seconds": round(proof.solve_seconds, 6),
        "solver_stats": proof.solver_stats,
    }


def bench_multi_error(design: str, error_seed: int,
                      max_probes: int = 12) -> dict:
    """Two-fault diagnose→fix→re-detect campaign with a bounded proof.

    Runs the ``"sat"`` strategy (cardinality-k pruning) on designs the
    all-instances relaxation can afford, plain ``"tiled"`` elsewhere.
    """
    from repro.api import run_spec

    strategy = "sat" if design in MULTI_SAT_DESIGNS else "tiled"
    spec = RunSpec(
        design=design, strategy=strategy, seed=1, preset="fast",
        error_kind="table_bit", error_seed=error_seed, n_errors=2,
        verify="prove", max_probes=max_probes, cache="private",
    )
    t0 = time.perf_counter()
    result = run_spec(spec)
    wall = time.perf_counter() - t0
    return {
        "strategy": strategy,
        "error_seed": error_seed,
        "n_errors": result.n_errors_injected,
        "detected": result.detected,
        "fixed": result.fixed,
        "proved": result.proved,
        "n_rounds": result.n_rounds,
        "errors_found": len(result.errors_found),
        "n_probes": result.n_probes,
        "n_sat_eliminated": result.n_sat_eliminated,
        "rounds": [
            {
                "round": r["round"],
                "n_probes": r["n_probes"],
                "probes_retired": r["probes_retired"],
                "sat_eliminated": r["sat_eliminated"],
                "corrected": r["corrected"],
                "residual_mismatches": r["residual_mismatches"],
            }
            for r in result.rounds
        ],
        "wall_seconds": round(wall, 6),
    }


#: RunResult fields that legitimately differ between two executions of
#: the same spec (clocks, attempt metadata, cache counters)
_VOLATILE_RESULT_FIELDS = {
    "wall_seconds", "timings", "effort", "cache", "attempts",
    "n_commit_cache_hits",
}


def bench_service_warm(design: str, error_seed: int,
                       max_probes: int = 12) -> dict:
    """Warm-vs-cold submission latency through the service daemon.

    Starts a private daemon (one worker, fresh cache dir), submits the
    same spec twice — the first pays every cold-start cost (bundle
    build, kernel lowering, fabric tables, fresh P&R),
    the second must hit the worker's warm registry and replay tile
    configs — and reports client-observed latency for each.  Both
    results must be bit-identical modulo timing/attempt metadata:
    warm state is a cache, never a semantic input.
    """
    import shutil
    import tempfile

    from repro.service.client import Client
    from repro.service.daemon import ReproService, ServiceConfig

    spec = RunSpec(
        design=design, strategy="tiled", seed=1, preset="fast",
        engine="compiled", error_kind="table_bit", error_seed=error_seed,
        max_probes=max_probes,
    )
    tmp = tempfile.mkdtemp(prefix="repro-bench-service-")
    config = ServiceConfig(
        socket_path=os.path.join(tmp, "service.sock"),
        cache_dir=os.path.join(tmp, "cache"),
        workers=1,
    )
    service = ReproService(config)
    service.start()
    try:
        client = Client(config.socket_path)
        # boot (python import + registry construction) is not part of
        # the cold-submission story; wait for the worker to report in
        deadline = time.monotonic() + 120.0
        while time.monotonic() < deadline:
            workers = client.stats().get("workers", [])
            if workers and all(w.get("ready") for w in workers):
                break
            time.sleep(0.05)

        t0 = time.perf_counter()
        cold_resp = client.run(spec, timeout_s=600.0)
        cold = time.perf_counter() - t0
        t0 = time.perf_counter()
        warm_resp = client.run(spec, fresh=True, timeout_s=600.0)
        warm = time.perf_counter() - t0
    finally:
        service.stop()
        shutil.rmtree(tmp, ignore_errors=True)

    assert not cold_resp["warm"]["hit"], (
        f"{design}: first service submission reported a warm hit"
    )
    assert warm_resp["warm"]["hit"], (
        f"{design}: second service submission missed the warm registry"
    )
    cold_result = cold_resp["result"]
    warm_result = warm_resp["result"]
    diverged = sorted(
        k for k in cold_result
        if k not in _VOLATILE_RESULT_FIELDS
        and cold_result[k] != warm_result.get(k)
    )
    assert not diverged, (
        f"{design}: warm service result diverges from cold on {diverged}"
    )
    return {
        "cold_seconds": round(cold, 6),
        "warm_seconds": round(warm, 6),
        "service_warm_speedup": cold / warm if warm > 0 else float("inf"),
        "warm_hit": True,
        "identical_results": True,
        "status": warm_result.get("status"),
    }


def bench_obs_overhead(design: str, error_seed: int,
                       max_probes: int = 12,
                       pairs: int = OBS_OVERHEAD_PAIRS) -> dict:
    """Wall-clock cost of an armed tracer on a full campaign run.

    The observability layer promises "zero-cost when disarmed" (the
    default path never touches a tracer) and "cheap when armed".  This
    section prices the armed half.  After one untimed warm-up, the same
    spec runs as ``pairs`` interleaved plain/traced pairs.  The order
    alternates from pair to pair, so drift in machine speed hits both
    arms alike, and every timed run starts after a full garbage
    collection.  Semantic bit-identity is asserted within each pair:
    tracing observes the run, it must never steer it.  The gate reads
    the median per-pair overhead; the interquartile range is recorded
    beside it.
    """
    from repro.api import run_spec
    from repro.obs.trace import Tracer

    spec = RunSpec(
        design=design, strategy="tiled", seed=1, preset="fast",
        engine="compiled", error_kind="table_bit", error_seed=error_seed,
        max_probes=max_probes, cache="private",
    )
    run_spec(spec)  # warm-up: imports + kernel lowering, untimed

    def timed(tracer):
        # collect the previous run's garbage outside the timed region,
        # so neither arm pays for the other's cyclic collection
        gc.collect()
        t0 = time.perf_counter()
        result = run_spec(spec, tracer=tracer)
        return time.perf_counter() - t0, result

    plain_times, traced_times, overheads = [], [], []
    n_events = 0
    for i in range(pairs):
        tracer = Tracer()
        if i % 2:
            traced_s, traced_result = timed(tracer)
            plain_s, plain_result = timed(None)
        else:
            plain_s, plain_result = timed(None)
            traced_s, traced_result = timed(tracer)
        n_events = max(n_events,
                       len(tracer.to_chrome_trace()["traceEvents"]))

        plain_dict = plain_result.to_dict()
        traced_dict = traced_result.to_dict()
        diverged = sorted(
            k for k in plain_dict
            if k not in _VOLATILE_RESULT_FIELDS
            and plain_dict[k] != traced_dict.get(k)
        )
        assert not diverged, (
            f"{design}: traced run diverges from untraced on {diverged}"
        )
        plain_times.append(plain_s)
        traced_times.append(traced_s)
        overheads.append(100.0 * (traced_s - plain_s) / plain_s)
    q1, median, q3 = statistics.quantiles(overheads, n=4)
    return {
        "design": design,
        "pairs": pairs,
        "plain_seconds": round(statistics.median(plain_times), 6),
        "traced_seconds": round(statistics.median(traced_times), 6),
        "overhead_pct": round(median, 3),
        "overhead_iqr_pct": round(q3 - q1, 3),
        "pair_overheads_pct": [round(o, 3) for o in overheads],
        "overhead_limit_pct": OBS_OVERHEAD_LIMIT_PCT,
        "n_trace_events": n_events,
        "identical_results": True,
    }


def count_src_lines() -> int:
    """Lines of Python under ``src/`` (``find src -name '*.py' | xargs
    cat | wc -l``)."""
    root = os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
    )
    total = 0
    for dirpath, _, names in os.walk(root):
        for name in names:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), "rb") as fh:
                    total += fh.read().count(b"\n")
    return total


def append_history(out_path: str, results: dict) -> list:
    """Load any existing run history and append this run's summary."""
    history = []
    if os.path.exists(out_path):
        try:
            with open(out_path) as fh:
                history = json.load(fh).get("history", [])
        except (json.JSONDecodeError, OSError):
            history = []
    summary = {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S", time.localtime()),
        "quick": results["quick"],
        "src_lines": count_src_lines(),
        "designs": {},
        "largest_design": results["largest_design"],
        "largest_localization_speedup": results[
            "largest_localization_speedup"
        ],
        "largest_commit_speedup": results["largest_commit_speedup"],
        "obs_overhead_pct": results["obs_overhead"]["overhead_pct"],
        "gates_ok": results["gates_ok"],
    }
    for name, data in results["designs"].items():
        loc = data["localization"]
        fv = loc["formal_verify"]
        me = data["multi_error"]
        sw = data["service_warm"]
        summary["designs"][name] = {
            "service_warm": {
                "cold_seconds": sw["cold_seconds"],
                "warm_seconds": sw["warm_seconds"],
                "speedup": round(sw["service_warm_speedup"], 3),
            },
            "sim_speedup": round(data["sim_throughput"]["speedup"], 3),
            "localization_speedup": round(loc["speedup"], 3),
            "campaign_speedup": round(loc["campaign_speedup"], 3),
            "commit_speedup": round(
                loc["commit_phase"]["commit_speedup"], 3
            ),
            "commit_hit_rate": loc["commit_phase"]["warm_cache_hit_rate"],
            "formal_verify": {
                "proved": fv["proved"],
                "build_seconds": fv["build_seconds"],
                "solve_seconds": fv["solve_seconds"],
            },
            "multi_error": {
                "strategy": me["strategy"],
                "fixed": me["fixed"],
                "proved": me["proved"],
                "n_rounds": me["n_rounds"],
                "n_probes": me["n_probes"],
                "probes_retired": sum(
                    r["probes_retired"] for r in me["rounds"]
                ),
                "sat_eliminated": me["n_sat_eliminated"],
                "wall_seconds": me["wall_seconds"],
            },
        }
    history.append(summary)
    return history


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--designs", default=None,
        help="comma-separated design names "
             f"(default: {','.join(DEFAULT_DESIGNS)})",
    )
    parser.add_argument(
        "--out", default=None,
        help="output JSON path (default: BENCH_perf.json, or "
             "BENCH_quick.json with --quick so smoke runs never "
             "overwrite the tracked full-run trajectory)",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="CI smoke: smallest design only, reduced probe budget",
    )
    args = parser.parse_args(argv)
    if args.out is None:
        args.out = "BENCH_quick.json" if args.quick else "BENCH_perf.json"
    if args.designs is not None:
        designs = [d.strip() for d in args.designs.split(",") if d.strip()]
    elif args.quick:
        designs = list(QUICK_DESIGNS)
    else:
        designs = list(DEFAULT_DESIGNS)
    if not designs:
        parser.error("--designs must name at least one design")
    from repro.generators import paper_design_names

    unknown = [d for d in designs if d not in paper_design_names()]
    if unknown:
        parser.error(
            f"unknown designs {unknown}; known: "
            + ", ".join(paper_design_names())
        )
    max_probes = 6 if args.quick else 12

    results: dict = {"designs": {}, "quick": args.quick}
    for design in designs:
        print(f"== {design} ==")
        sim = bench_sim_throughput(design)
        print(
            "  sim: interpreted {:.0f} pc/s, compiled {:.0f} pc/s "
            "({:.1f}x, bit-identical)".format(
                sim["interpreted"]["pattern_cycles_per_sec"],
                sim["compiled"]["pattern_cycles_per_sec"],
                sim["speedup"],
            )
        )
        loc = bench_localization(
            design, ERROR_SEEDS.get(design, 1), max_probes=max_probes
        )
        print(
            "  localization: interpreted {:.3f}s ({:.3f}s/probe), "
            "compiled {:.3f}s ({:.4f}s/probe) — {:.1f}x, "
            "bit-identical over {} probes".format(
                loc["interpreted"]["localization_seconds"],
                loc["interpreted"]["seconds_per_probe"],
                loc["compiled"]["localization_seconds"],
                loc["compiled"]["seconds_per_probe"],
                loc["speedup"],
                loc["compiled"]["n_probes"],
            )
        )
        cp = loc["commit_phase"]
        print(
            "  commit: cold {:.3f}s ({:.1f}ms/commit), warm {:.3f}s "
            "({:.1f}ms/commit) — {:.1f}x, {}/{} cached, legal={}".format(
                cp["cold_seconds"],
                1e3 * cp["seconds_per_commit_cold"],
                cp["warm_seconds"],
                1e3 * cp["seconds_per_commit_warm"],
                cp["commit_speedup"],
                cp["warm_cache_hits"],
                cp["n_commits"],
                cp["routed_legal"],
            )
        )
        print(
            "  campaign: {:.1f}x end-to-end".format(loc["campaign_speedup"])
        )
        fv = loc["formal_verify"]
        print(
            "  formal verify: proved={} over {} frames, {}/{} outputs "
            "structural, build {:.3f}s solve {:.3f}s".format(
                fv["proved"], fv["frames"], fv["n_structural"],
                fv["n_outputs"], fv["build_seconds"], fv["solve_seconds"],
            )
        )
        me = bench_multi_error(
            design, MULTI_ERROR_SEEDS.get(design, 1), max_probes=max_probes
        )
        print(
            "  multi-error ({}): fixed={} proved={} over {} rounds, "
            "{} probes, {} retired, {} sat-eliminated, {:.2f}s".format(
                me["strategy"], me["fixed"], me["proved"], me["n_rounds"],
                me["n_probes"],
                sum(r["probes_retired"] for r in me["rounds"]),
                me["n_sat_eliminated"], me["wall_seconds"],
            )
        )
        sw = bench_service_warm(
            design, ERROR_SEEDS.get(design, 1), max_probes=max_probes
        )
        print(
            "  service: cold {:.3f}s -> warm {:.3f}s ({:.1f}x, warm hit, "
            "bit-identical)".format(
                sw["cold_seconds"], sw["warm_seconds"],
                sw["service_warm_speedup"],
            )
        )
        results["designs"][design] = {
            "sim_throughput": sim,
            "localization": loc,
            "multi_error": me,
            "service_warm": sw,
        }

    # gates run on the largest design (by instance count, not order)
    largest = max(
        designs,
        key=lambda d: results["designs"][d]["sim_throughput"]["n_instances"],
    )
    largest_loc = results["designs"][largest]["localization"]
    results["largest_design"] = largest
    results["largest_localization_speedup"] = largest_loc["speedup"]
    results["largest_commit_speedup"] = (
        largest_loc["commit_phase"]["commit_speedup"]
    )
    results["speedup_target"] = SPEEDUP_TARGET
    results["commit_speedup_target"] = COMMIT_SPEEDUP_TARGET
    results["campaign_speedup_target"] = CAMPAIGN_SPEEDUP_TARGET
    results["service_warm_target"] = SERVICE_WARM_TARGET
    results["largest_service_warm_speedup"] = results["designs"][
        largest
    ]["service_warm"]["service_warm_speedup"]

    obs = bench_obs_overhead(
        largest, ERROR_SEEDS.get(largest, 1), max_probes=max_probes
    )
    results["obs_overhead"] = obs
    print(
        "obs overhead ({}): plain {:.3f}s -> traced {:.3f}s, median "
        "{:+.2f}% (IQR {:.2f}) over {} pairs, {} events, bit-identical; "
        "limit {:.0f}%".format(
            largest, obs["plain_seconds"], obs["traced_seconds"],
            obs["overhead_pct"], obs["overhead_iqr_pct"], obs["pairs"],
            obs["n_trace_events"], OBS_OVERHEAD_LIMIT_PCT,
        )
    )

    gates = {
        "obs_overhead": obs["overhead_pct"] < OBS_OVERHEAD_LIMIT_PCT,
        "service_warm_speedup": (
            results["largest_service_warm_speedup"]
            >= SERVICE_WARM_TARGET
        ),
        "localization_speedup": (
            largest_loc["speedup"] >= SPEEDUP_TARGET
        ),
        "commit_speedup": (
            largest_loc["commit_phase"]["commit_speedup"]
            >= COMMIT_SPEEDUP_TARGET
        ),
        "routed_legal": largest_loc["commit_phase"]["routed_legal"],
        # the two-fault loop must land a verified fix on every design
        "multi_error_fixed": all(
            data["multi_error"]["fixed"] and data["multi_error"]["proved"]
            for data in results["designs"].values()
        ),
    }
    if "des" in results["designs"]:
        gates["des_campaign_speedup"] = (
            results["designs"]["des"]["localization"]["campaign_speedup"]
            > CAMPAIGN_SPEEDUP_TARGET
        )
    results["gates"] = gates
    results["gates_ok"] = all(gates.values())
    # retained for older tooling reading this file
    results["speedup_ok"] = gates["localization_speedup"]

    results["history"] = append_history(args.out, results)
    with open(args.out, "w") as fh:
        json.dump(results, fh, indent=2, sort_keys=True)
    print(f"\nwrote {args.out} ({len(results['history'])} runs in history)")
    print(
        "largest design {}: {:.1f}x localization (>= {:.0f}x), "
        "{:.1f}x commit phase (>= {:.0f}x) — {}".format(
            largest,
            largest_loc["speedup"],
            SPEEDUP_TARGET,
            largest_loc["commit_phase"]["commit_speedup"],
            COMMIT_SPEEDUP_TARGET,
            "OK" if results["gates_ok"] else "FAIL "
            + str([k for k, v in gates.items() if not v]),
        )
    )
    return 0 if results["gates_ok"] else 1


if __name__ == "__main__":
    sys.exit(main())

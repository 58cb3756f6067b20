"""``python -m repro`` — the command-line face of the facade.

The subcommands, all built on :mod:`repro.api`:

* ``run`` — one spec through the pipeline; ``--json -`` streams the
  :class:`RunResult` to stdout (human summary goes to stderr).
  Exit code 0 iff the error was detected and the fix verified.
* ``campaign`` — a spec matrix (designs x strategies x engines x error
  seeds x seeds) through :class:`CampaignRunner`; writes a results
  JSON that ``report`` re-loads.
* ``report`` — pretty-print a results file written by ``run`` or
  ``campaign``, a ``.jsonl`` journal, or a whole directory of either.
* ``cache verify`` — damage report for a persisted tile-config store
  (exit 1 when corrupt or quarantined entries exist).
* ``serve`` / ``client`` — the warm-start debug service: a daemon
  owning resident worker processes (:mod:`repro.service`) and the
  client verbs (``submit``, ``submit-batch``, ``status``, ``result``,
  ``events``, ``stats``, ``shutdown``) that talk to it over its unix
  socket.

``--cache-dir DIR`` persists the tile-configuration cache across
invocations, so a repeated run starts warm and replays precomputed
configurations instead of re-running place-and-route.

``campaign --executor process`` runs each spec in a supervised child
process (hard wall-clock kills, crash isolation); ``--journal FILE``
plus ``--resume`` restarts an interrupted campaign from where it died.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro._version import __version__
from repro.api.campaign import (
    EXECUTORS,
    CampaignResult,
    CampaignRunner,
    expand_matrix,
)
from repro.api.pipeline import PipelineHooks, run_spec
from repro.api.result import RunResult
from repro.api.spec import (
    CACHE_POLICIES,
    CORRECTION_MODES,
    ENGINE_NAMES,
    RunSpec,
    VERIFY_MODES,
)
from repro.debug.errors import ERROR_KINDS
from repro.debug.strategies import STRATEGY_REGISTRY
from repro.errors import ReproError
from repro.pnr.effort import EFFORT_PRESETS


class _ProgressHooks(PipelineHooks):
    """``--verbose``: stage and probe progress on stderr."""

    def on_stage_start(self, stage, ctx) -> None:
        print(f"[{ctx.packed.netlist.name}] {stage.name}...",
              file=sys.stderr)

    def on_stage_end(self, stage, ctx, seconds) -> None:
        print(f"[{ctx.packed.netlist.name}] {stage.name} done "
              f"({seconds:.2f}s)", file=sys.stderr)

    def on_probe(self, ctx, step) -> None:
        print(
            f"  probe {step.probe_instance}: "
            f"{'mismatch' if step.mismatch else 'match'}, "
            f"{step.candidates_before} -> {step.candidates_after} "
            "candidates",
            file=sys.stderr,
        )


def _add_spec_arguments(parser: argparse.ArgumentParser) -> None:
    """Flags that override RunSpec fields (None = keep spec default)."""
    g = parser.add_argument_group("run spec")
    g.add_argument("--spec", metavar="FILE",
                   help="base RunSpec JSON file; flags override it")
    g.add_argument("--design", help="registry design name")
    g.add_argument("--design-seed", type=int, dest="design_seed")
    g.add_argument("--blif", dest="blif_path", metavar="FILE",
                   help="debug a BLIF netlist instead of a registry design")
    g.add_argument("--device", help="XC4000 family member (default: auto)")
    g.add_argument("--strategy", choices=sorted(STRATEGY_REGISTRY))
    g.add_argument("--preset", choices=list(EFFORT_PRESETS))
    g.add_argument("--engine", choices=list(ENGINE_NAMES))
    g.add_argument("--seed", type=int)
    g.add_argument("--error-kind", dest="error_kind",
                   choices=list(ERROR_KINDS))
    g.add_argument("--error-seed", type=int, dest="error_seed")
    g.add_argument("--n-errors", type=int, dest="n_errors",
                   help="inject this many simultaneous errors "
                        "(distinct instances)")
    g.add_argument("--error-kinds-list", dest="error_kinds_list",
                   metavar="K1,K2,...",
                   help="comma-separated per-error kinds "
                        "(length must match --n-errors)")
    g.add_argument("--max-rounds", type=int, dest="max_rounds",
                   help="diagnose->fix->re-detect round budget "
                        "(default: one round per error)")
    g.add_argument("--max-probes", type=int, dest="max_probes")
    g.add_argument("--goal-size", type=int, dest="goal_size")
    g.add_argument("--n-patterns", type=int, dest="n_patterns")
    g.add_argument("--n-cycles", type=int, dest="n_cycles")
    g.add_argument("--verify", choices=list(VERIFY_MODES),
                   help="fix verification: stimulus replay, bounded "
                        "SAT proof, or both")
    g.add_argument("--prove-frames", type=int, dest="prove_frames",
                   help="proof unrolling depth (default: n-cycles)")
    g.add_argument("--correction", choices=list(CORRECTION_MODES),
                   help="fix synthesis: back-annotation or CEGIS")
    g.add_argument("--n-tiles", type=int, dest="n_tiles",
                   help="tiling granularity (TilingOptions.n_tiles)")
    g.add_argument("--cache", choices=list(CACHE_POLICIES))
    g.add_argument("--cache-dir", dest="cache_dir", metavar="DIR",
                   help="persist the tile-config cache across invocations")
    r = parser.add_argument_group("resilience")
    r.add_argument("--timeout", type=float, dest="timeout_s",
                   metavar="SECONDS",
                   help="per-run wall-clock deadline; an expired run "
                        "ends with status 'timeout' and partial results")
    r.add_argument("--stage-timeout", action="append",
                   dest="stage_timeout", metavar="STAGE=SECONDS",
                   help="per-stage deadline (repeatable), e.g. "
                        "--stage-timeout localize=5")
    r.add_argument("--retries", type=int,
                   help="re-attempts after a failed (not timed-out) "
                        "attempt, stepping down the degradation ladder")
    r.add_argument("--chaos", metavar="JSON",
                   help="deterministic fault injection: a ChaosConfig "
                        "JSON object or fault list "
                        '(e.g. \'{"faults":[{"kind":"exception",'
                        '"stage":"localize"}]}\')')


_SPEC_FLAGS = (
    "design", "design_seed", "blif_path", "device", "strategy", "preset",
    "engine", "seed", "error_kind", "error_seed", "n_errors", "max_rounds",
    "max_probes", "goal_size", "n_patterns", "n_cycles", "verify",
    "prove_frames", "correction", "cache", "cache_dir", "timeout_s",
    "retries",
)


def _spec_from_args(args: argparse.Namespace) -> RunSpec:
    if args.spec:
        with open(args.spec) as fh:
            spec = RunSpec.from_dict(json.load(fh))
    else:
        spec = RunSpec()
    overrides = {
        name: getattr(args, name)
        for name in _SPEC_FLAGS
        if getattr(args, name, None) is not None
    }
    if getattr(args, "n_tiles", None) is not None:
        tiling = dict(spec.tiling or {})
        tiling["n_tiles"] = args.n_tiles
        overrides["tiling"] = tiling
    kinds = _parse_csv(getattr(args, "error_kinds_list", None))
    if kinds is not None:
        overrides["error_kinds"] = kinds
        # the kind list implies the error count unless given explicitly
        overrides.setdefault("n_errors", len(kinds))
    stage_timeouts = _parse_stage_timeouts(
        getattr(args, "stage_timeout", None))
    if stage_timeouts is not None:
        overrides["stage_timeouts"] = stage_timeouts
    chaos_text = getattr(args, "chaos", None)
    if chaos_text is not None:
        try:
            overrides["chaos"] = json.loads(chaos_text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"--chaos is not valid JSON: {exc}") from exc
    return spec.replaced(**overrides) if overrides else spec


def _parse_stage_timeouts(pairs: list | None) -> dict | None:
    if not pairs:
        return None
    timeouts: dict = {}
    for pair in pairs:
        name, sep, value = pair.partition("=")
        if not sep or not name.strip():
            raise ValueError(
                f"--stage-timeout wants STAGE=SECONDS, got {pair!r}")
        try:
            timeouts[name.strip()] = float(value)
        except ValueError:
            raise ValueError(
                f"--stage-timeout seconds must be a number, got {pair!r}"
            ) from None
    return timeouts


def _parse_csv(text: str | None, convert=str) -> list | None:
    if text is None:
        return None
    values = [convert(v.strip()) for v in text.split(",") if v.strip()]
    return values or None


#: campaign-matrix axes shared by ``campaign`` and ``client
#: submit-batch``: flag, ``expand_matrix`` keyword, help, value type
_MATRIX_AXES = (
    ("--designs", "designs", "comma-separated design names", str),
    ("--strategies", "strategies", "comma-separated strategies", str),
    ("--engines", "engines", "comma-separated engines", str),
    ("--error-kinds", "error_kinds", "comma-separated error kinds", str),
    ("--error-seeds", "error_seeds", "comma-separated error seeds", int),
    ("--seeds", "seeds", "comma-separated campaign seeds", int),
)


def _add_matrix_arguments(parser: argparse.ArgumentParser) -> None:
    for flag, dest, help_text, _ in _MATRIX_AXES:
        parser.add_argument(flag, dest=dest, help=help_text)


def _matrix_axes(args: argparse.Namespace) -> dict:
    """The parsed axis lists, keyed as ``expand_matrix`` takes them."""
    return {
        dest: _parse_csv(getattr(args, dest), convert)
        for _, dest, _, convert in _MATRIX_AXES
    }


def _summary_line(result: RunResult) -> str:
    line = (
        f"{result.design:<10} {result.strategy:<12} {result.engine:<12} "
        f"err={result.error_kind}@{result.error_instance:<14} "
        f"detected={str(result.detected):<5} "
        f"localized={str(result.localized):<5} "
        f"fixed={str(result.fixed):<5} "
    )
    if result.status != "ok":
        line += f"status={result.status:<8} "
    if result.proved is not None:
        line += f"proved={str(result.proved):<5} "
    if result.n_errors_injected > 1:
        line += (
            f"errors={len(result.errors_found)}/"
            f"{result.n_errors_injected} rounds={result.n_rounds:<2} "
        )
    line += (
        f"probes={result.n_probes:<3} commits={result.n_commits:<3} "
        f"cache_hits={result.n_commit_cache_hits:<3} "
        f"{result.wall_seconds:7.2f}s"
    )
    return line


def _emit_json(payload: dict, target: str) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True)
    if target == "-":
        print(text)
    else:
        with open(target, "w") as fh:
            fh.write(text + "\n")


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------

def cmd_run(args: argparse.Namespace) -> int:
    spec = _spec_from_args(args)
    hooks = _ProgressHooks() if args.verbose else None
    tracer = None
    if args.trace:
        from repro.obs.trace import Tracer

        tracer = Tracer()
    result = run_spec(spec, hooks=hooks, tracer=tracer,
                      profile=args.profile)
    stdout_busy = args.json == "-" or args.trace == "-"
    info = sys.stderr if stdout_busy else sys.stdout
    print(_summary_line(result), file=info)
    for note in result.notes:
        print(f"  note: {note}", file=info)
    if tracer is not None:
        tracer.write_chrome_trace(args.trace)
        if args.trace != "-":
            print(f"wrote trace {args.trace} "
                  "(chrome://tracing / Perfetto; 'report' renders the "
                  "span tree)", file=info)
    if args.json:
        _emit_json(result.to_dict(), args.json)
    return 0 if (result.detected and result.fixed) else 1


def cmd_campaign(args: argparse.Namespace) -> int:
    base = _spec_from_args(args)
    specs = expand_matrix(base, **_matrix_axes(args))
    hooks = _ProgressHooks() if args.verbose else None
    if hooks is not None and args.executor == "process":
        # stage hooks cannot observe across a process boundary
        print("note: --verbose stage hooks are unavailable with "
              "--executor process", file=sys.stderr)
        hooks = None
    runner = CampaignRunner(workers=args.workers, hooks=hooks,
                            cache_dir=base.cache_dir,
                            on_error=args.on_error,
                            executor=args.executor,
                            hard_timeout_s=args.hard_timeout_s,
                            journal=args.journal,
                            resume=args.resume)
    campaign = runner.run(specs)
    info = sys.stderr if args.out == "-" else sys.stdout
    for result in campaign.results:
        print(_summary_line(result), file=info)
    print(campaign.summary_line(), file=info)
    for note in campaign.notes:
        print(f"  note: {note}", file=info)
    if campaign.cache is not None:
        print(
            "tile cache: {hits:.0f} hits / {misses:.0f} misses "
            "(hit rate {hit_rate:.2f})".format(**campaign.cache),
            file=info,
        )
    if args.out:
        _emit_json(campaign.to_dict(), args.out)
        if args.out != "-":
            print(f"wrote {args.out}", file=info)
    if campaign.aborted or campaign.interrupted:
        return 1
    return 0 if campaign.n_runs else 1


def cmd_cache_verify(args: argparse.Namespace) -> int:
    import os

    from repro.tiling.cache import (
        CACHE_STORE_NAME,
        verify_cache_file,
        verify_cache_store,
    )

    path = args.path
    if not os.path.exists(path):
        print(f"{path}: nothing to verify (no such path)")
        return 0
    if os.path.isdir(path):
        # a --cache-dir (holding the store) or the store dir itself
        if os.path.basename(path.rstrip("/")) == CACHE_STORE_NAME:
            path = os.path.dirname(path.rstrip("/")) or "."
        report = verify_cache_store(path)
        print(
            f"{args.path}: {report['valid']} valid entr"
            f"{'y' if report['valid'] == 1 else 'ies'}, "
            f"{len(report['corrupt'])} corrupt, "
            f"{len(report['quarantined'])} quarantined"
        )
        for kind in ("corrupt", "quarantined"):
            for entry in report[kind]:
                print(f"  {kind}: {entry}")
        return 1 if (report["corrupt"] or report["quarantined"]) else 0
    n = verify_cache_file(path)
    print(f"{path}: {n} valid entr{'y' if n == 1 else 'ies'}")
    return 0 if n else 1


def _load_report_file(path: str) -> tuple[list, "CampaignResult | None"]:
    """Results (and the campaign, if it is one) from one saved file.

    Three shapes are understood: a ``RunResult`` JSON, a
    ``CampaignResult`` JSON, and an append-only ``.jsonl`` journal as
    written by ``campaign --journal`` or the service spool (later
    entries win, torn tails skipped).
    """
    if path.endswith(".jsonl"):
        from repro.api.journal import CampaignJournal

        entries = CampaignJournal(path).load()
        return [RunResult.from_dict(d) for d in entries.values()], None
    with open(path) as fh:
        data = json.load(fh)
    if "results" in data:
        campaign = CampaignResult.from_dict(data)
        return campaign.results, campaign
    return [RunResult.from_dict(data)], None


def _report_sources(target: str) -> list[str]:
    """The files one ``report`` invocation covers (a file, or a
    directory of ``.json``/``.jsonl`` result files)."""
    import os

    if not os.path.isdir(target):
        return [target]
    files = sorted(
        os.path.join(target, name)
        for name in os.listdir(target)
        if name.endswith((".json", ".jsonl"))
    )
    if not files:
        raise ValueError(
            f"{target}: no .json or .jsonl result files to report"
        )
    return files


def _report_trace(path: str) -> bool:
    """Render a Chrome trace file as a span tree; False if not one."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, ValueError):
        return False
    if not isinstance(data, dict) or "traceEvents" not in data:
        return False
    from repro.obs.trace import render_chrome_tree

    print(render_chrome_tree(data))
    profile = (data.get("otherData") or {}).get("profile")
    if profile:
        print()
        _print_profile(profile)
    return True


def _print_profile(profile: dict) -> None:
    print(f"stage profile ({profile.get('profiler', '?')}, top "
          "functions by self time):")
    for stage, rows in (profile.get("stages") or {}).items():
        print(f"  {stage}:")
        for row in rows[:5]:
            print(f"    {row['tottime_s']:8.4f}s self "
                  f"{row['cumtime_s']:8.4f}s cum "
                  f"{row['ncalls']:>8}x  {row['func']}")


def _print_timings(results: list) -> None:
    """Per-stage latency distribution across many results.

    Built from the same :class:`~repro.obs.metrics.Histogram` the
    metrics registry uses, so ``report --timings`` and a scrape of
    ``repro_stage_seconds`` agree on quantile semantics.
    """
    from repro.obs.metrics import Histogram

    stages: dict[str, Histogram] = {}
    for r in results:
        for stage, seconds in (r.timings.get("stages") or {}).items():
            stages.setdefault(stage, Histogram()).observe(seconds)
    if not stages:
        print("no per-stage timings recorded in these results")
        return
    header = (f"{'stage':<12} {'runs':>5} {'p50 s':>9} {'p95 s':>9} "
              f"{'max s':>9} {'total s':>9}")
    print(header)
    print("-" * len(header))
    for stage, hist in stages.items():
        print(
            f"{stage:<12} {hist.count:>5} {hist.quantile(0.5):>9.3f} "
            f"{hist.quantile(0.95):>9.3f} {hist.max:>9.3f} "
            f"{hist.total:>9.3f}"
        )


def cmd_report(args: argparse.Namespace) -> int:
    results: list = []
    campaigns: list = []
    sources = _report_sources(args.file)
    if len(sources) == 1 and _report_trace(sources[0]):
        return 0
    for path in sources:
        try:
            file_results, campaign = _load_report_file(path)
        except (OSError, ValueError, KeyError) as exc:
            print(f"  skipping {path}: {exc}", file=sys.stderr)
            continue
        results.extend(file_results)
        if campaign is not None:
            campaigns.append(campaign)
    header = (
        f"{'design':<10} {'strategy':<12} {'engine':<12} "
        f"{'error':<24} {'det':<5} {'loc':<5} {'fix':<5} "
        f"{'probes':>6} {'commits':>7} {'work units':>11} {'wall s':>8}"
    )
    print(header)
    print("-" * len(header))
    for r in results:
        work = r.effort.get("debug", {}).get("work_units", 0.0)
        print(
            f"{r.design:<10} {r.strategy:<12} {r.engine:<12} "
            f"{r.error_kind + '@' + r.error_instance:<24} "
            f"{str(r.detected):<5} {str(r.localized):<5} "
            f"{str(r.fixed):<5} {r.n_probes:>6} {r.n_commits:>7} "
            f"{work:>11.0f} {r.wall_seconds:>8.2f}"
        )
    print()
    for campaign in campaigns:
        print(campaign.summary_line())
        if campaign.cache is not None:
            print(
                "tile cache: {hits:.0f} hits / {misses:.0f} misses "
                "(hit rate {hit_rate:.2f})".format(**campaign.cache)
            )
    if args.timings:
        _print_timings(results)
    elif len(sources) > 1 or not campaigns:
        detected = sum(1 for r in results if r.detected)
        localized = sum(1 for r in results if r.localized)
        fixed = sum(1 for r in results if r.fixed)
        print(
            f"{len(results)} result{'s' if len(results) != 1 else ''}, "
            f"{detected} detected, {localized} localized, {fixed} fixed "
            f"across {len(sources)} file{'s' if len(sources) != 1 else ''}"
        )
    return 0 if results else 1


def cmd_serve(args: argparse.Namespace) -> int:
    from repro.service.daemon import (
        ServiceConfig,
        default_socket_path,
        serve,
    )

    overrides = {}
    if args.heartbeat_interval is not None:
        overrides["heartbeat_interval_s"] = args.heartbeat_interval
    if args.heartbeat_grace is not None:
        overrides["heartbeat_timeout_s"] = args.heartbeat_grace
    config = ServiceConfig(
        socket_path=args.socket or default_socket_path(args.cache_dir),
        cache_dir=args.cache_dir,
        workers=args.workers,
        spool_dir=args.spool_dir,
        hard_timeout_s=args.hard_timeout_s,
        warm_max_entries=args.warm_entries,
        max_requeues=args.max_requeues,
        **overrides,
    )
    return serve(config)


def _client(args: argparse.Namespace):
    from repro.service.client import Client
    from repro.service.daemon import default_socket_path

    return Client(args.socket or default_socket_path())


def _print_result_response(response: dict, args) -> int:
    result = RunResult.from_dict(response["result"])
    info = sys.stderr if getattr(args, "json", None) == "-" else sys.stdout
    print(_summary_line(result), file=info)
    warm = response.get("warm") or {}
    if warm:
        print(
            f"  warm: hit={warm.get('hit')} "
            f"service_seconds={warm.get('service_seconds')}",
            file=info,
        )
    if getattr(args, "json", None):
        _emit_json(response["result"], args.json)
    return 0 if result.status in ("ok", "degraded") else 1


def cmd_client_ping(args: argparse.Namespace) -> int:
    print(json.dumps(_client(args).ping(), sort_keys=True))
    return 0


def cmd_client_submit(args: argparse.Namespace) -> int:
    client = _client(args)
    spec = _spec_from_args(args)
    job = client.submit(spec, priority=args.priority, fresh=args.fresh,
                        trace=args.trace)
    if not args.wait:
        print(json.dumps(job, sort_keys=True))
        return 0
    response = client.wait(job["job"], timeout_s=args.wait_timeout)
    return _print_result_response(response, args)


def cmd_client_submit_batch(args: argparse.Namespace) -> int:
    client = _client(args)
    base = _spec_from_args(args)
    response = client.submit_batch(
        base,
        priority=args.priority,
        fresh=args.fresh,
        **_matrix_axes(args),
    )
    jobs = response["jobs"]
    if not args.wait:
        print(json.dumps(jobs, sort_keys=True, indent=2))
        return 0
    worst = 0
    for job in jobs:
        settled = client.wait(job["job"], timeout_s=args.wait_timeout)
        worst = max(worst, _print_result_response(settled, args))
    return worst


def cmd_client_status(args: argparse.Namespace) -> int:
    response = _client(args).status(args.job)
    print(json.dumps(response, sort_keys=True, indent=2))
    return 0


def cmd_client_result(args: argparse.Namespace) -> int:
    response = _client(args).result(args.job, timeout_s=args.wait_timeout)
    return _print_result_response(response, args)


def cmd_client_events(args: argparse.Namespace) -> int:
    for event in _client(args).events(args.job):
        print(json.dumps(event, sort_keys=True), flush=True)
    return 0


def cmd_client_stats(args: argparse.Namespace) -> int:
    response = _client(args).stats(metrics=args.metrics)
    if args.metrics:
        # the exposition text alone, scrape-ready for Prometheus
        sys.stdout.write(response.get("metrics_text", ""))
        return 0
    print(json.dumps(response, sort_keys=True, indent=2))
    return 0


def cmd_client_shutdown(args: argparse.Namespace) -> int:
    _client(args).shutdown()
    print("service stopping")
    return 0


# ----------------------------------------------------------------------
# parser
# ----------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="FPGA debug-pipeline facade (detect -> localize -> "
                    "correct -> verify)",
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="one spec through the pipeline")
    _add_spec_arguments(p_run)
    p_run.add_argument("--json", metavar="PATH|-",
                       help="write the RunResult JSON ('-' = stdout)")
    p_run.add_argument("--trace", metavar="PATH|-",
                       help="record a span trace and write it as Chrome "
                            "trace_event JSON (chrome://tracing, "
                            "Perfetto, or 'report FILE')")
    p_run.add_argument("--profile", action="store_true",
                       help="profile each stage with cProfile; top "
                            "functions land in the result JSON under "
                            "'profile'")
    p_run.add_argument("--verbose", action="store_true")
    p_run.set_defaults(func=cmd_run)

    p_camp = sub.add_parser("campaign",
                            help="a spec matrix through the pipeline")
    _add_spec_arguments(p_camp)
    _add_matrix_arguments(p_camp)
    p_camp.add_argument("--workers", type=int, default=1)
    p_camp.add_argument("--executor", choices=list(EXECUTORS),
                        default="thread",
                        help="run in-process threads (default, "
                             "bit-identical to prior releases) or "
                             "supervised child processes (true "
                             "parallelism, hard kills, crash isolation)")
    p_camp.add_argument("--hard-timeout", type=float,
                        dest="hard_timeout_s", metavar="SECONDS",
                        help="process executor: kill a worker outright "
                             "after this many seconds (default: derived "
                             "from --timeout)")
    p_camp.add_argument("--journal", metavar="FILE",
                        help="append each completed run to this JSONL "
                             "journal (enables --resume)")
    p_camp.add_argument("--resume", action="store_true",
                        help="skip specs already completed in --journal "
                             "and execute only the rest")
    p_camp.add_argument("--on-error", dest="on_error",
                        choices=["continue", "abort"], default="continue",
                        help="campaign reaction to a failed run "
                             "(default: continue)")
    p_camp.add_argument("--out", metavar="PATH|-",
                        help="write the campaign results JSON")
    p_camp.add_argument("--verbose", action="store_true")
    p_camp.set_defaults(func=cmd_campaign)

    p_rep = sub.add_parser(
        "report",
        help="pretty-print results: a saved JSON, a JSONL journal, or "
             "a directory of either (aggregate summary)",
    )
    p_rep.add_argument(
        "file",
        help="a run/campaign JSON, a .jsonl journal, a directory "
             "of result/journal files (e.g. a campaign spool), or a "
             "Chrome trace written by 'run --trace'",
    )
    p_rep.add_argument(
        "--timings", action="store_true",
        help="per-stage latency distribution (p50/p95/max) across "
             "every result instead of the aggregate tail line",
    )
    p_rep.set_defaults(func=cmd_report)

    p_serve = sub.add_parser(
        "serve", help="run the warm-start debug-service daemon"
    )
    p_serve.add_argument("--socket", metavar="PATH",
                         help="unix socket to listen on (default: "
                              "<cache-dir>/repro-service.sock)")
    p_serve.add_argument("--cache-dir", dest="cache_dir", metavar="DIR",
                         help="tile-config persistence + spool root; "
                              "workers start warm from it")
    p_serve.add_argument("--workers", type=int, default=1,
                         help="resident worker processes (0 = queue "
                              "only; jobs wait for a restart with "
                              "workers)")
    p_serve.add_argument("--spool-dir", dest="spool_dir", metavar="DIR",
                         help="job spool override (default: "
                              "<cache-dir>/service)")
    p_serve.add_argument("--heartbeat-interval", type=float,
                         default=None, metavar="SECONDS",
                         help="worker heartbeat cadence (default 0.25)")
    p_serve.add_argument("--heartbeat-grace", type=float, default=None,
                         metavar="SECONDS",
                         help="event silence before a worker is "
                              "declared wedged and killed (default 15)")
    p_serve.add_argument("--hard-timeout", type=float,
                         dest="hard_timeout_s", metavar="SECONDS",
                         help="per-job hard wall-clock ceiling "
                              "(default: derived from each spec's "
                              "--timeout)")
    p_serve.add_argument("--warm-entries", type=int, default=8,
                         help="warm-registry LRU bound per worker")
    p_serve.add_argument("--max-requeues", type=int, default=1,
                         dest="max_requeues",
                         help="worker deaths tolerated per job before "
                              "it settles as failed")
    p_serve.set_defaults(func=cmd_serve)

    p_client = sub.add_parser(
        "client", help="talk to a running debug-service daemon"
    )
    client_sub = p_client.add_subparsers(dest="client_command",
                                         required=True)

    def _client_parser(name: str, help_text: str):
        p = client_sub.add_parser(name, help=help_text)
        p.add_argument("--socket", metavar="PATH",
                       help="daemon socket (default: "
                            "/tmp/repro-service.sock)")
        return p

    p_c = _client_parser("ping", "liveness check")
    p_c.set_defaults(func=cmd_client_ping)

    p_c = _client_parser("submit", "submit one spec")
    _add_spec_arguments(p_c)
    p_c.add_argument("--priority", type=int, default=0,
                     help="higher runs first (default 0)")
    p_c.add_argument("--fresh", action="store_true",
                     help="re-run even if this spec already has a "
                          "result (dedup override)")
    p_c.add_argument("--trace", action="store_true",
                     help="arm a tracer in the worker; 'client events' "
                          "streams span_start/span_end lines")
    p_c.add_argument("--wait", action="store_true",
                     help="block until the job settles and print the "
                          "result summary")
    p_c.add_argument("--wait-timeout", type=float, default=600.0,
                     dest="wait_timeout", metavar="SECONDS")
    p_c.add_argument("--json", metavar="PATH|-",
                     help="with --wait: write the RunResult JSON")
    p_c.set_defaults(func=cmd_client_submit)

    p_c = _client_parser("submit-batch",
                         "expand a campaign matrix server-side")
    _add_spec_arguments(p_c)
    _add_matrix_arguments(p_c)
    p_c.add_argument("--priority", type=int, default=0)
    p_c.add_argument("--fresh", action="store_true")
    p_c.add_argument("--wait", action="store_true",
                     help="block until every job settles")
    p_c.add_argument("--wait-timeout", type=float, default=600.0,
                     dest="wait_timeout", metavar="SECONDS")
    p_c.add_argument("--json", metavar="PATH|-",
                     help="with --wait: write each RunResult JSON")
    p_c.set_defaults(func=cmd_client_submit_batch)

    p_c = _client_parser("status", "job state (or the whole queue)")
    p_c.add_argument("job", nargs="?", default=None,
                     help="job digest (omit for all jobs)")
    p_c.set_defaults(func=cmd_client_status)

    p_c = _client_parser("result", "final RunResult of a job")
    p_c.add_argument("job", help="job digest")
    p_c.add_argument("--wait-timeout", type=float, default=None,
                     dest="wait_timeout", metavar="SECONDS",
                     help="block up to this long for an unfinished job")
    p_c.add_argument("--json", metavar="PATH|-")
    p_c.set_defaults(func=cmd_client_result)

    p_c = _client_parser("events", "stream a job's pipeline events")
    p_c.add_argument("job", help="job digest")
    p_c.set_defaults(func=cmd_client_events)

    p_c = _client_parser("stats", "queue depth, warm hits, workers")
    p_c.add_argument("--metrics", action="store_true",
                     help="print the daemon's metrics registry in "
                          "Prometheus text exposition format")
    p_c.set_defaults(func=cmd_client_stats)

    p_c = _client_parser("shutdown", "drain workers and stop the daemon")
    p_c.set_defaults(func=cmd_client_shutdown)

    p_cache = sub.add_parser(
        "cache", help="inspect a persisted tile-config cache"
    )
    cache_sub = p_cache.add_subparsers(dest="cache_command", required=True)
    p_verify = cache_sub.add_parser(
        "verify",
        help="damage report for a --cache-dir, store directory, or "
             "entry file (exit 1 on damage)",
    )
    p_verify.add_argument("path", help="cache directory or file to verify")
    p_verify.set_defaults(func=cmd_cache_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ReproError, ValueError) as exc:
        # bad spec fields, malformed CSV values, bad worker counts —
        # all user input; fail fast without a traceback
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # anything else is a pipeline bug: report it structurally so
        # scripts driving the CLI can tell "internal error" (3) apart
        # from "bad input" (2) and "run did not fix" (1)
        from repro.resilience.failure import RunFailure

        failure = RunFailure.from_exception(exc, stage="cli")
        print(json.dumps({"error": failure.to_dict()}, sort_keys=True),
              file=sys.stderr)
        return 3

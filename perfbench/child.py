"""One pass's process: a single run, or one campaign, in a fresh interpreter.

Run from the checkout root with the checkout and ``src`` on
``PYTHONPATH``::

    python3 -m perfbench.child SPECS.json [--campaign [--cache-dir DIR]]
                               [--trace FILE] [--setup-only]

``SPECS.json`` holds a list of RunSpec dicts.  Without ``--campaign``
the single spec runs through ``run_spec``; with it, every spec runs
through one in-process ``CampaignRunner`` (thread executor, one
worker).  ``--setup-only`` stops once the first run context is built.

The last stdout line is one JSON object: ``pipeline_start`` and
``result_ready`` (``time.monotonic()`` stamps, comparable with the
launching process's clock), ``rss_mb`` (peak RSS), ``results``
(``RunResult.to_dict()`` each), ``replay`` (held-out replay verdict of
each fixed run of an untraced pass, else ``null``), and for a campaign
the ``(start, end)`` stamps of the ``campaign``, of each of its
``runs`` and of each replay check (``checks``), and its ``cache``
delta.  With ``--trace`` the layer spans are written to FILE as a
Chrome trace and summarized under ``layers``.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_campaign(specs, cache_dir, out: dict, replay_fixed: bool) -> None:
    """The specs through one campaign, each fixed run replayed as its
    verify stage ends (the launcher takes the replays' intervals,
    ``checks``, out of the runs')."""
    import repro.api.campaign as campaign
    from repro.api.pipeline import PipelineHooks

    from perfbench.checks import replay_matches_golden
    from perfbench.layers import patched

    replay: dict = {}
    checks: list = []

    class ReplayFixed(PipelineHooks):
        # replaying here, not after the campaign, keeps no netlist
        # alive across runs: holding them all slows later runs' GC
        def on_stage_end(self, stage, ctx, seconds) -> None:
            if replay_fixed and stage.name == "verify" and ctx.fixed:
                t0 = time.monotonic()
                replay[ctx.spec.digest()] = replay_matches_golden(
                    ctx.packed.netlist, ctx.golden, ctx.spec)
                checks.append((t0, time.monotonic()))

    runner = campaign.CampaignRunner(workers=1, hooks=ReplayFixed(),
                                     cache_dir=cache_dir)
    runs: list = []
    run_spec = campaign.run_spec

    def timed_run_spec(spec, **kwargs):
        t0 = time.monotonic()
        try:
            return run_spec(spec, **kwargs)
        finally:
            runs.append((t0, time.monotonic()))

    with patched([(campaign, "run_spec", timed_run_spec)]):
        t0 = time.monotonic()
        done = runner.run(specs)
        out["campaign"] = (t0, time.monotonic())
    out["runs"] = runs
    out["checks"] = checks
    out["cache"] = done.cache
    out["results"] = [r.to_dict() for r in done.results]
    out["replay"] = [replay.get(spec.digest()) for spec in specs]


def run_single(spec, out: dict, replay_fixed: bool, tracer=None) -> None:
    """One spec through ``run_spec``, its fix replayed after the result."""
    from repro.api.pipeline import run_spec

    from perfbench.checks import replay_matches_golden
    from perfbench.layers import CATEGORY

    # a campaign's runs are spanned at its run_spec call, this one here
    span = tracer.begin("run", category=CATEGORY) if tracer else None
    result, ctx = run_spec(spec, return_context=True)
    if span is not None:
        tracer.end(span)
    out["result_ready"] = time.monotonic()
    out["cache"] = result.cache
    out["results"] = [result.to_dict()]
    out["replay"] = [
        replay_matches_golden(ctx.packed.netlist, ctx.golden, spec)
        if replay_fixed and result.fixed else None
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench.child")
    parser.add_argument("specs", help="JSON file with a list of RunSpecs")
    parser.add_argument("--campaign", action="store_true")
    parser.add_argument("--cache-dir")
    parser.add_argument("--trace", help="write layer spans to this file")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    from perfbench.layers import instrumented, patched, summarize
    from repro.api.pipeline import DebugPipeline, RunContext
    from repro.api.spec import RunSpec
    from repro.obs.trace import Tracer
    from repro.tiling.cache import TileConfigCache

    with open(args.specs) as fh:
        specs = [RunSpec.from_dict(data) for data in json.load(fh)]
    if args.setup_only:
        RunContext.from_spec(specs[0], tile_cache=TileConfigCache())
        print(json.dumps({"pipeline_start": time.monotonic(),
                          "rss_mb": peak_rss_mb()}))
        return 0

    out: dict = {}
    execute = DebugPipeline.execute

    def stamped_execute(self, ctx):
        out.setdefault("pipeline_start", time.monotonic())
        return execute(self, ctx)

    # a traced pass is checked against its untraced twin, which
    # replays, so the traced one skips the replay
    tracer = Tracer() if args.trace else None
    layer_scope = instrumented(tracer) if tracer else patched([])
    with patched([(DebugPipeline, "execute", stamped_execute)]), \
            layer_scope:
        if args.campaign:
            run_campaign(specs, args.cache_dir, out,
                         replay_fixed=tracer is None)
            out["result_ready"] = time.monotonic()
        else:
            run_single(specs[0], out, replay_fixed=tracer is None,
                       tracer=tracer)
    out.setdefault("pipeline_start", out["result_ready"])
    out["rss_mb"] = peak_rss_mb()
    if tracer is not None:
        tracer.write_chrome_trace(args.trace)
        out["layers"] = summarize(tracer)
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

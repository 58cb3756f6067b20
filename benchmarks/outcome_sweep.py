"""Outcome sweep: shows that two trees produce byte-identical runs.

Runs a fixed set of specs and writes, per spec, the run's ``comparable``
result (``perfbench.checks``: every outcome field, no timings) and a
sha256 over every ``route_nets`` and ``grow_steiner_tree`` result of
the run together with the router expansions each call charged.  The
specs are every error kind on 9sym and s9234, des and mips, and three
two-fault SAT runs on 9sym, each at error seeds 1-2 (1-3 for SAT),
preset ``fast`` with a private tile cache, so every P&R step computes.

Run it once from each tree root and compare the outputs::

    python benchmarks/outcome_sweep.py parent.json   # in the parent tree
    python benchmarks/outcome_sweep.py change.json   # in the changed tree
    cmp parent.json change.json
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.checks import comparable  # noqa: E402
from repro.api.pipeline import run_spec  # noqa: E402
from repro.api.spec import RunSpec  # noqa: E402
from repro.debug.errors import ERROR_KINDS  # noqa: E402
from repro.errors import RoutingError  # noqa: E402
from repro.pnr import flow  # noqa: E402


def sweep_specs() -> list[dict]:
    specs = [dict(design=d, error_kind=k, error_seed=s)
             for d in ("9sym", "s9234") for k in ERROR_KINDS for s in (1, 2)]
    specs += [dict(design=d, error_seed=s)
              for d in ("des", "mips") for s in (1, 2)]
    specs += [dict(design="9sym", error_seed=s, n_errors=2, strategy="sat",
                   correction="cegis", verify="prove") for s in (1, 2, 3)]
    return specs


def _routes_shape(routes):
    return [
        (idx, sorted(t.cells), sorted(t.edges), sorted(t.sink_hops.items()))
        for idx, t in sorted(routes.items())
    ]


def _steiner_shape(result):
    cells, edges, hops = result[:3]
    return sorted(cells), sorted(edges), sorted(hops.items())


def _digesting(fn, shape, digest):
    """``fn`` feeding each call's outcome and expansion count to ``digest``."""
    def call(*args, **kwargs):
        meter = kwargs["meter"]
        before = meter.route_expansions

        def record(outcome):
            spent = meter.route_expansions - before
            digest[0].update(repr((fn.__name__, outcome, spent)).encode())

        try:
            result = fn(*args, **kwargs)
        except RoutingError as exc:
            record(("raised", str(exc)))
            raise
        record(shape(result))
        return result
    return call


def main(out: str) -> None:
    digest = [hashlib.sha256()]
    flow.route_nets = _digesting(flow.route_nets, _routes_shape, digest)
    flow.grow_steiner_tree = _digesting(
        flow.grow_steiner_tree, _steiner_shape, digest
    )
    results = {}
    for spec in sweep_specs():
        digest[0] = hashlib.sha256()
        result = run_spec(RunSpec(preset="fast", cache="private", **spec))
        results[json.dumps(spec, sort_keys=True)] = {
            "result": comparable(result),
            "route_digest": digest[0].hexdigest(),
        }
    with open(out, "w") as fh:
        json.dump(results, fh, indent=1, sort_keys=True, default=str)


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: outcome_sweep.py OUT")
    main(sys.argv[1])

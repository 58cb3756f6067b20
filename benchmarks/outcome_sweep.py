"""Outcome sweep: shows that two trees produce byte-identical runs.

Runs a fixed set of specs and writes, per spec, the run's ``comparable``
result (``perfbench.checks``: every outcome field, no timings) and one
sha256 per P&R kernel over every result the run got from it:

* ``route_digest`` — every ``route_nets`` and ``grow_steiner_tree``
  result with the router expansions each call charged;
* ``place_digest`` — every ``place_design`` placement (sorted block
  positions) with the annealer moves each call charged;
* ``tiling_digest`` — every ``refine_boundaries`` move count with the
  tile membership it left.

The specs are every error kind on 9sym and s9234, des and mips, and
three two-fault SAT runs on 9sym, each at error seeds 1-2 (1-3 for
SAT); two error kinds on 9sym and s9234 on the interpreted engine
(localization's name-set candidates), at error seeds 1-2; and two
single-fault SAT runs on s9234 per engine that drain through the
fallback probe pick; and the perfbench ``warm_rerun`` specs (des error
seed 1, mips error seed 2, at 64 cycles and 12 probes), whose long
windows and full probe rounds exercise the localizer's round record of
DUT words.  All run at preset ``fast`` with a private tile cache, so
every P&R step computes.

The same spec list then runs once more through one ``CampaignRunner``
(thread executor, one worker), whose runs share a private tile cache
and the campaign's design memo; its ``comparable`` results make the
``campaign`` section, so the comparison covers the memo path too.

Last, the spec list runs once into a fresh ``cache_dir`` and then again
from it; the second runs' ``comparable`` results (their ``cache_dir``
replaced by a placeholder) make the ``warm`` section, so the comparison
covers replays read from the on-disk store.

Run it once from each tree root and compare the outputs::

    python benchmarks/outcome_sweep.py parent.json   # in the parent tree
    python benchmarks/outcome_sweep.py change.json   # in the changed tree
    cmp parent.json change.json
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.checks import comparable  # noqa: E402
from repro.api.campaign import CampaignRunner  # noqa: E402
from repro.api.pipeline import run_spec  # noqa: E402
from repro.api.spec import RunSpec  # noqa: E402
from repro.debug.errors import ERROR_KINDS  # noqa: E402
from repro.pnr import flow  # noqa: E402
from repro.pnr.router import fabric_of  # noqa: E402
from repro.tiling import manager  # noqa: E402


def sweep_specs() -> list[dict]:
    specs = [dict(design=d, error_kind=k, error_seed=s)
             for d in ("9sym", "s9234") for k in ERROR_KINDS for s in (1, 2)]
    specs += [dict(design=d, error_seed=s)
              for d in ("des", "mips") for s in (1, 2)]
    specs += [dict(design="9sym", error_seed=s, n_errors=2, strategy="sat",
                   correction="cegis", verify="prove") for s in (1, 2, 3)]
    specs += [dict(design=d, error_kind=k, error_seed=s, engine="interpreted")
              for d in ("9sym", "s9234")
              for k in ("wrong_function", "wrong_source") for s in (1, 2)]
    specs += [dict(design="s9234", error_kind=k, error_seed=s, strategy="sat",
                   engine=e)
              for k, s in (("wrong_function", 22), ("wrong_source", 9))
              for e in ("compiled", "interpreted")]
    specs += [dict(design=d, error_seed=s, n_cycles=64, max_probes=12)
              for d, s in (("des", 1), ("mips", 2))]
    return specs


def _routes_shape(routes, args):
    edge_tuple = fabric_of(args[1]).edge_tuple
    return [
        (idx, sorted(t.cells), sorted(map(edge_tuple, t.eids)),
         sorted(t.sink_hops.items()))
        for idx, t in sorted(routes.items())
    ]


def _steiner_shape(result, args):
    cells, hops, eids = result[0], result[-2], result[-1]
    edges = sorted(map(fabric_of(args[0]).edge_tuple, eids))
    return sorted(cells), edges, sorted(hops.items())


def _place_shape(placement, args):
    return sorted(placement.pos.items())


def _refine_shape(moves, args):
    tiles = args[1]
    return moves, [sorted(t.blocks) for t in tiles]


def _digesting(fn, shape, digests, key, counter=None):
    """``fn`` feeding each call's outcome to ``digests[key]``.

    ``shape(result, args)`` renders the outcome; with ``counter`` the
    digest also takes the effort the call charged to that meter field.
    """
    def call(*args, **kwargs):
        meter = kwargs.get("meter")
        before = getattr(meter, counter) if counter else None

        def record(outcome):
            spent = getattr(meter, counter) - before if counter else None
            digests[key].update(repr((fn.__name__, outcome, spent)).encode())

        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            record(("raised", type(exc).__name__, str(exc)))
            raise
        record(shape(result, args))
        return result
    return call


KERNELS = ("route_digest", "place_digest", "tiling_digest")


def main(out: str) -> None:
    digests = {}
    flow.route_nets = _digesting(
        flow.route_nets, _routes_shape, digests, "route_digest",
        "route_expansions",
    )
    flow.grow_steiner_tree = _digesting(
        flow.grow_steiner_tree, _steiner_shape, digests, "route_digest",
        "route_expansions",
    )
    flow.place_design = _digesting(
        flow.place_design, _place_shape, digests, "place_digest",
        "place_moves",
    )
    manager.refine_boundaries = _digesting(
        manager.refine_boundaries, _refine_shape, digests, "tiling_digest",
    )
    specs = sweep_specs()
    results = {}
    for spec in specs:
        for key in KERNELS:
            digests[key] = hashlib.sha256()
        result = run_spec(RunSpec(preset="fast", cache="private", **spec))
        entry = {"result": comparable(result)}
        for key in KERNELS:
            entry[key] = digests[key].hexdigest()
        results[json.dumps(spec, sort_keys=True)] = entry
    campaign = CampaignRunner().run(
        [RunSpec(preset="fast", cache="private", **spec) for spec in specs]
    )
    results["campaign"] = {
        json.dumps(spec, sort_keys=True): comparable(result)
        for spec, result in zip(specs, campaign.results)
    }
    results["warm"] = {}
    with tempfile.TemporaryDirectory() as cache_dir:
        warm_specs = [RunSpec(preset="fast", cache="private",
                              cache_dir=cache_dir, **spec) for spec in specs]
        for spec in warm_specs:
            run_spec(spec)
        for spec, warm_spec in zip(specs, warm_specs):
            entry = comparable(run_spec(warm_spec))
            entry["spec"]["cache_dir"] = "CACHE_DIR"
            results["warm"][json.dumps(spec, sort_keys=True)] = entry
    with open(out, "w") as fh:
        json.dump(results, fh, indent=1, sort_keys=True, default=str)


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: outcome_sweep.py OUT")
    main(sys.argv[1])

"""Layer spans timed from outside the program.

The traced run patches each public entry point of a layer *where its
caller looks it up* with a wrapper that opens and closes a
:class:`repro.obs.trace.Tracer` span around the call.  Nothing in the
program changes: the wrappers live here, are installed only for the
traced pass, and are removed afterwards.

A target that no longer exists raises :class:`LayerTargetMissing`
before anything runs, so a rename in the program fails the benchmark
instead of silently dropping a layer.  A target that exists but is no
longer reached on a workload that must reach it is caught after the
traced pass by :func:`missing_layers`.
"""

from __future__ import annotations

import functools
import importlib
from contextlib import contextmanager

#: (layer, module, attribute path).  A layer may have several targets:
#: one per call site's lookup (module-level imports bind their own name)
#: and one per public call that does the layer's work.
TARGETS = (
    ("run", "repro.api.campaign", "run_spec"),
    ("build.load_bundle", "repro.api.design", "load_bundle"),
    ("pnr.place", "repro.pnr.flow", "place_design"),
    ("pnr.route", "repro.pnr.flow", "route_nets"),
    ("pnr.replay", "repro.pnr.flow", "apply_region_config"),
    ("pnr.replay", "repro.tiling.manager", "apply_region_config"),
    ("implement", "repro.debug.strategies", "BaseStrategy.build_initial"),
    ("relayout", "repro.debug.strategies",
     "TiledStrategy.prepare_for_debug"),
    ("commit", "repro.tiling.manager", "TiledLayout.apply_changeset"),
    ("cache.key", "repro.tiling.cache", "full_pnr_key"),
    ("persist.load", "repro.tiling.cache", "load_tile_cache"),
    ("persist.load", "repro.api.campaign", "load_tile_cache"),
    ("persist.save", "repro.tiling.cache", "save_tile_cache"),
    ("persist.save", "repro.api.campaign", "save_tile_cache"),
    ("emu.detect", "repro.api.pipeline", "detect_on_layout"),
    ("emu.golden", "repro.debug.localize", "ConeLocalizer.__init__"),
    ("emu.step", "repro.emu.emulator", "Emulator.step"),
    ("emu.refresh", "repro.emu.emulator", "Emulator.__init__"),
    ("emu.refresh", "repro.emu.emulator", "Emulator.refresh"),
    ("localize", "repro.debug.localize", "ConeLocalizer.run"),
    ("correct", "repro.api.pipeline", "apply_correction"),
    ("correct", "repro.debug.correct", "synthesize_lut_fix"),
    ("sat.solve", "repro.sat.solver", "Solver.solve"),
    ("sat.prune", "repro.sat.diagnose", "SuspectPruner.prune"),
    ("sat.prove", "repro.sat.equiv", "prove_equivalence"),
)

LAYERS = tuple(dict.fromkeys(layer for layer, _, _ in TARGETS))

#: span category of every benchmark-owned span
CATEGORY = "layer"


class LayerTargetMissing(RuntimeError):
    """A wrapped entry point no longer exists in the program."""


def _resolve(module_name: str, path: str):
    """``(owner, attribute, current value)`` of a dotted target."""
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            break
    # the name must be bound on the owner itself: patching an inherited
    # attribute would shadow it instead of wrapping the real callee
    if owner is None or attr not in vars(owner):
        raise LayerTargetMissing(
            f"{module_name}.{path} no longer exists; the benchmark's "
            "layer table must follow the rename"
        )
    return owner, attr, vars(owner)[attr]


def _wrap(fn, tracer, layer: str):
    # a solve span also records the conflicts the solve added
    counts_conflicts = layer == "sat.solve"

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        before = args[0].stats.conflicts if counts_conflicts else 0
        span = tracer.begin(layer, category=CATEGORY)
        status = "error"
        try:
            out = fn(*args, **kwargs)
            status = "ok"
            return out
        finally:
            attrs = ({"conflicts": args[0].stats.conflicts - before}
                     if counts_conflicts else {})
            tracer.end(span, status=status, **attrs)
    return wrapper


@contextmanager
def patched(replacements):
    """Set ``(owner, attr, value)`` triples, restoring them on exit."""
    saved = [(owner, attr, vars(owner)[attr])
             for owner, attr, _ in replacements]
    try:
        for owner, attr, value in replacements:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


def instrumented(tracer, targets=TARGETS):
    """Context manager: every target wrapped in a span of its layer.

    Every target is resolved before any is patched, so a missing one
    raises :class:`LayerTargetMissing` with the program untouched.
    """
    resolved = [(_resolve(module, path), layer)
                for layer, module, path in targets]
    return patched([
        (owner, attr, _wrap(value, tracer, layer))
        for (owner, attr, value), layer in resolved
    ])


# -- span tree → per-layer numbers ---------------------------------------


def summarize(tracer) -> dict:
    """Per-layer busy/self seconds, call counts and SAT conflicts.

    ``busy_s`` counts a layer's outermost spans only (a layer nested in
    itself is not double counted); ``self_s`` is each span minus the
    part its child layer spans cover.  ``runs`` sums ``run`` spans and
    the part of them no layer span covers (``unattributed_s``).
    """
    layers = {layer: {"busy_s": 0.0, "self_s": 0.0, "calls": 0,
                      "conflicts": 0} for layer in LAYERS if layer != "run"}
    runs = {"n": 0, "wall_s": 0.0, "unattributed_s": 0.0}

    def visit(span, open_layers: frozenset) -> None:
        children = [c for c in span.children if c.category == CATEGORY]
        child_s = sum(c.duration_s for c in children)
        if span.name == "run":
            runs["n"] += 1
            runs["wall_s"] += span.duration_s
            runs["unattributed_s"] += span.duration_s - child_s
        else:
            entry = layers[span.name]
            entry["calls"] += 1
            entry["self_s"] += span.duration_s - child_s
            entry["conflicts"] += span.attrs.get("conflicts", 0)
            if span.name not in open_layers:
                entry["busy_s"] += span.duration_s
        inner = open_layers | {span.name}
        for child in children:
            visit(child, inner)

    for root in tracer.roots:
        if root.category == CATEGORY:
            visit(root, frozenset())
    return {"layers": layers, "runs": runs}


def merge_summaries(summaries) -> dict:
    """Sum :func:`summarize` outputs (one per child interpreter)."""
    total = {"layers": {}, "runs": {"n": 0, "wall_s": 0.0,
                                    "unattributed_s": 0.0}}
    for one in summaries:
        for layer, entry in one["layers"].items():
            into = total["layers"].setdefault(
                layer, dict.fromkeys(entry, 0)
            )
            for key, value in entry.items():
                into[key] += value
        for key, value in one["runs"].items():
            total["runs"][key] += value
    return total


def missing_layers(summary: dict, required) -> list[str]:
    """Required layers the traced pass never entered."""
    return [layer for layer in required
            if summary["layers"].get(layer, {}).get("calls", 0) == 0]

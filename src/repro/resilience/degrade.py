"""Graceful-degradation ladder for infrastructure failures.

When a run attempt dies and retries remain, the executor does not just
re-run the identical spec — it steps *down* the capability ladder,
trading the accelerated/formal machinery for the simpler retained
reference paths that the accelerated paths are tested bit-identical
against:

* ``strategy``   ``sat``      → ``tiled``        (SAT pruning off)
* ``correction`` ``cegis``    → ``oracle``       (back-annotation)
* ``engine``     ``compiled`` → ``interpreted``  (reference simulator)
* ``cache``      ``shared``/``private`` → ``off`` (fresh P&R, no replay)

Each applied rung is recorded as a ``degradation`` note on the result
(never a silent swallow), and a run that finished only thanks to a
fallback reports ``status="degraded"``.

Rung selection is stage-aware: a failure inside ``correct`` suggests
the CEGIS rung before the engine rung, a failure inside ``localize``
the SAT-strategy rung, and so on.  When no stage-matched rung applies
the first applicable rung in ladder order is taken, so a retry always
makes *some* change when one is available.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Rung:
    """One ladder step: ``field`` falls from ``sources`` to ``target``."""

    field: str
    sources: tuple
    target: str
    #: failure stages this rung most plausibly explains
    stages: tuple


#: ladder order = preference order when several rungs apply
DEGRADATION_LADDER = (
    Rung("strategy", ("sat",), "tiled", ("localize", "diagnose")),
    Rung("correction", ("cegis",), "oracle", ("correct", "diagnose")),
    Rung("engine", ("compiled",), "interpreted",
         ("detect", "localize", "correct", "verify", "diagnose")),
    Rung("cache", ("shared", "private"), "off",
         ("setup", "detect", "localize", "correct", "diagnose")),
)


def _applicable(spec, rung: Rung) -> bool:
    return getattr(spec, rung.field) in rung.sources


def next_degraded(spec, stage: str = ""):
    """The next rung down for a failure at ``stage``, or ``None``.

    Returns ``(degraded_spec, note)`` where ``note`` is the JSON-ready
    degradation record ``{"field", "from", "to", "stage"}``; ``None``
    when the spec already sits at the bottom of every rung.
    """
    matched = [
        rung for rung in DEGRADATION_LADDER
        if _applicable(spec, rung) and stage in rung.stages
    ]
    fallback = [
        rung for rung in DEGRADATION_LADDER if _applicable(spec, rung)
    ]
    for rung in matched or fallback:
        current = getattr(spec, rung.field)
        note = {
            "field": rung.field,
            "from": current,
            "to": rung.target,
            "stage": stage,
        }
        return spec.replaced(**{rung.field: rung.target}), note
    return None

"""Outcome checks that do not trust the tool's own verdicts.

* ``localized`` is recomputed from the injected error list and each
  round's final candidates, and must agree with the flag the run
  reports;
* every ``fixed`` run's corrected netlist is replayed against the
  golden model on a stimulus seed the run never saw;
* the traced run's results must equal the untraced run's, apart from
  the fields that measure rather than compute (:data:`MEASURED_FIELDS`).

A check that fails counts against ``pass_rate`` and makes the
benchmark exit non-zero.
"""

from __future__ import annotations

#: offset from the spec's stimulus seed to the held-out replay seed (the
#: run itself uses ``seed`` and, when it widens, ``seed + 1``)
HELD_OUT_SEED_OFFSET = 7919

#: result fields that record cost, not outcome (every ``*seconds`` entry,
#: at any depth, is dropped as well)
MEASURED_FIELDS = ("timings", "effort", "cache", "attempts")
#: per-failure fields that record cost or the call stack (the traced
#: run's stack holds the layer wrappers)
MEASURED_FAILURE_FIELDS = ("elapsed_s", "traceback_digest")


def recomputed_localized(result) -> bool:
    """Every injected site survived in some round's final candidates."""
    if not result.detected or not result.errors:
        return False
    finals = [set(r["candidates"]) for r in result.rounds]
    if not finals:
        finals = [set(result.candidates)]
    return all(
        any(err["instance"] in final for final in finals)
        for err in result.errors
    )


def replay_matches_golden(netlist, golden, spec) -> bool:
    """The corrected netlist's outputs equal the golden model's on a
    held-out random stimulus (observation-point ports are ignored)."""
    from repro.debug.detect import compare_runs
    from repro.debug.testgen import random_stimulus
    from repro.netlist.simulate import replay_outputs

    stimulus = random_stimulus(
        golden, spec.n_cycles, spec.n_patterns,
        seed=spec.seed + HELD_OUT_SEED_OFFSET,
    )
    dut = replay_outputs(netlist, stimulus, spec.n_patterns,
                         engine=spec.engine)
    gold = replay_outputs(golden, stimulus, spec.n_patterns,
                          engine=spec.engine)
    return not compare_runs(dut, gold)


def outcome_problems(result, replay_ok: bool | None) -> list[str]:
    """Why one run fails the bench's outcome checks (empty: it passes).

    ``replay_ok`` is the held-out replay verdict, ``None`` when the run
    did not report ``fixed``.
    """
    problems = []
    if recomputed_localized(result) != result.localized:
        problems.append(
            f"localized={result.localized} but the injected sites say "
            f"{not result.localized}"
        )
    if result.fixed and replay_ok is not True:
        problems.append("fixed, but the held-out replay disagrees with "
                        "the golden model")
    return problems


def _without_seconds(value):
    """``value`` with every nested ``*seconds`` entry (e.g. a proof's
    ``build_seconds``) removed."""
    if isinstance(value, dict):
        return {k: _without_seconds(v) for k, v in value.items()
                if not k.endswith("seconds")}
    if isinstance(value, list):
        return [_without_seconds(v) for v in value]
    return value


def comparable(result) -> dict:
    """A result's outcome fields, for traced == untraced comparison."""
    data = result.to_dict()
    for name in MEASURED_FIELDS:
        data.pop(name, None)
    data["failures"] = [
        {k: v for k, v in f.items() if k not in MEASURED_FAILURE_FIELDS}
        for f in data["failures"]
    ]
    return _without_seconds(data)


def parity_problems(untraced, traced) -> list[str]:
    """Runs whose traced result differs from the untraced one."""
    if len(untraced) != len(traced):
        return [f"traced pass ran {len(traced)} runs, untraced "
                f"{len(untraced)}"]
    return [
        f"run {i} ({a.design} error_seed {a.spec['error_seed']}): traced "
        "result differs from untraced"
        for i, (a, b) in enumerate(zip(untraced, traced))
        if comparable(a) != comparable(b)
    ]

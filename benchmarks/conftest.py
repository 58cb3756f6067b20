"""Benchmark configuration.

Environment knobs:

* ``REPRO_BENCH_DESIGNS`` — comma-separated subset (default: all nine
  paper designs; e.g. ``REPRO_BENCH_DESIGNS=9sym,styr,s9234`` for a
  quick pass);
* ``REPRO_BENCH_PRESET`` — effort preset (default ``fast``, as are the
  numbers in ROADMAP.md's "The paper's figures" list unless noted).

Each benchmark regenerates one table/figure of the paper and prints it,
so ``pytest benchmarks/ --benchmark-only -s`` reproduces the evaluation
section end to end.
"""

from __future__ import annotations

import os

import pytest

from repro.analysis.experiments import ExperimentConfig, ExperimentSuite
from repro.generators import paper_design_names
from repro.pnr.effort import EFFORT_PRESETS


def bench_designs() -> list[str]:
    raw = os.environ.get("REPRO_BENCH_DESIGNS", "")
    if not raw:
        return paper_design_names()
    names = [n.strip() for n in raw.split(",") if n.strip()]
    known = set(paper_design_names())
    unknown = [n for n in names if n not in known]
    if unknown:
        raise ValueError(f"unknown designs in REPRO_BENCH_DESIGNS: {unknown}")
    return names


def bench_preset():
    name = os.environ.get("REPRO_BENCH_PRESET", "fast")
    return EFFORT_PRESETS[name]


@pytest.fixture(scope="session")
def suite() -> ExperimentSuite:
    config = ExperimentConfig(
        designs=bench_designs(),
        seed=1,
        preset=bench_preset(),
    )
    return ExperimentSuite(config)

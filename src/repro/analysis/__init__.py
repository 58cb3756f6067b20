"""Experiment drivers and report formatting for the paper's evaluation.

* :mod:`repro.analysis.experiments` — one driver per table/figure:
  :func:`run_table1`, :func:`run_figure3`, :func:`run_figure4`,
  :func:`run_figure5`, plus the slack and boundary ablations
  (:func:`run_ablation_slack`, :func:`run_ablation_boundaries`);
* :mod:`repro.analysis.report` — ASCII rendering in the paper's shape.
"""

from repro.analysis.experiments import (
    ExperimentConfig,
    Figure3Series,
    Figure4Series,
    Figure5Row,
    Table1Row,
    run_figure3,
    run_figure4,
    run_figure5,
    run_table1,
)
from repro.analysis.report import (
    format_figure3,
    format_figure4,
    format_figure5,
    format_table1,
)

__all__ = [
    "ExperimentConfig",
    "Figure3Series",
    "Figure4Series",
    "Figure5Row",
    "Table1Row",
    "run_figure3",
    "run_figure4",
    "run_figure5",
    "run_table1",
    "format_figure3",
    "format_figure4",
    "format_figure5",
    "format_table1",
]

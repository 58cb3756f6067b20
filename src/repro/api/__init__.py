"""Public debug-pipeline facade — the one stable entry point.

The paper's contribution is an end-to-end flow; this package is its
API surface:

* :class:`RunSpec` — frozen, JSON-round-trippable definition of a run
  (design, device, error model, engine, strategy, budgets, seeds,
  cache policy);
* the staged pipeline — :class:`DetectStage` → :class:`DiagnoseLoop`
  (:class:`LocalizeStage` → :class:`CorrectStage` per round) →
  :class:`VerifyStage` over a :class:`RunContext` whose ``spec`` is the
  run's only input, observable through :class:`PipelineHooks`;
* :func:`run_spec` — one spec in, one :class:`RunResult` out; its
  ``tracer=`` and ``profile=`` are the only observability switches;
* :class:`CampaignRunner` / :func:`expand_matrix` — fan spec grids
  through the pipeline with worker threads or supervised worker
  processes, journaled for ``--resume``;
* the ``python -m repro`` CLI (``run`` / ``campaign`` / ``bench`` /
  ``report`` / ``cache verify``) built on all of the above.
"""

from repro.api.campaign import (
    EXECUTORS,
    CampaignResult,
    CampaignRunner,
    expand_matrix,
)
from repro.api.design import GENERATOR_BUILDERS, device_for, load_bundle
from repro.api.journal import CampaignJournal
from repro.api.pipeline import (
    CorrectStage,
    DebugPipeline,
    DetectStage,
    DiagnoseLoop,
    LocalizeStage,
    PipelineHooks,
    RoundRecord,
    RunContext,
    Stage,
    VerifyStage,
    run_spec,
)
from repro.api.result import RunResult
from repro.api.spec import (
    CACHE_POLICIES,
    CORRECTION_MODES,
    ENGINE_NAMES,
    RunSpec,
    VERIFY_MODES,
)

__all__ = [
    "CACHE_POLICIES",
    "CORRECTION_MODES",
    "EXECUTORS",
    "VERIFY_MODES",
    "CampaignJournal",
    "CampaignResult",
    "CampaignRunner",
    "CorrectStage",
    "DebugPipeline",
    "DetectStage",
    "DiagnoseLoop",
    "ENGINE_NAMES",
    "RoundRecord",
    "GENERATOR_BUILDERS",
    "LocalizeStage",
    "PipelineHooks",
    "RunContext",
    "RunResult",
    "RunSpec",
    "Stage",
    "VerifyStage",
    "device_for",
    "expand_matrix",
    "load_bundle",
    "run_spec",
]

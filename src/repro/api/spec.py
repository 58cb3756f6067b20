"""`RunSpec` — the serializable definition of one debug run.

A spec captures *everything* that determines a campaign's outcome:
which design (registry benchmark, parameterized generator, or BLIF
file), which device and effort preset, the injected error model, the
simulation engine, the back-end strategy, probe budget, seeds, and the
tile-configuration cache policy.  Two processes handed equal specs
compute bit-identical candidates and probe trajectories.

Specs are frozen, JSON-round-trippable (`to_dict` / `from_dict` /
`to_json` / `from_json`), and validated eagerly: a bad field raises
:class:`repro.errors.SpecError` (a :class:`ValueError`) naming the
field and the legal values, so the CLI and campaign files fail fast
instead of mid-run.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, fields

from repro.arch.device import XC4000_FAMILY
from repro.debug.errors import ERROR_KINDS
from repro.debug.strategies import STRATEGY_REGISTRY
from repro.errors import SpecError
from repro.pnr.effort import EFFORT_PRESETS
from repro.resilience.chaos import STAGE_NAMES

ENGINE_NAMES = ("compiled", "interpreted")
CACHE_POLICIES = ("shared", "private", "off")
#: how VerifyStage judges the fix: stimulus replay, bounded SAT proof
#: (miter per output cone, counterexample on failure), or both
VERIFY_MODES = ("simulate", "prove", "both")
#: how CorrectStage produces the fix: replay the designer's
#: back-annotated inverse, or CEGIS a truth table from counterexamples
CORRECTION_MODES = ("oracle", "cegis")

_DEVICE_NAMES = tuple(spec.name for spec in XC4000_FAMILY)

#: fields excluded from :meth:`RunSpec.digest`.  The digest identifies
#: the *work*, not the harness around it: ``chaos`` injects failures
#: without changing what a healthy run computes, and ``cache_dir`` only
#: moves where warm tile configs live.  Excluding them lets a
#: ``campaign --resume`` rerun (typically without the chaos flags that
#: killed the first attempt) match the journal entries of the runs that
#: already finished.
RESUME_EXCLUDED_FIELDS = ("chaos", "cache_dir")

#: keys accepted in the ``tiling`` sub-dict (TilingOptions fields)
_TILING_KEYS = (
    "n_tiles", "tile_clbs", "tile_fraction", "area_overhead",
    "min_tile_side", "refine_passes",
)


@dataclass(frozen=True)
class RunSpec:
    """Everything that defines one detect→localize→correct→verify run.

    Every field has a default, so a spec names only what differs from
    the stock run (s9234, tiled strategy, compiled engine, ``normal``
    preset).
    """

    #: registry benchmark name (see :func:`repro.generators.build_design`)
    #: or, with ``design_params``, a parameterized generator name
    design: str = "s9234"
    #: seed handed to the design generator
    design_seed: int = 0
    #: optional generator kwargs (enables non-registry variants, e.g. a
    #: reduced 2-round DES); ``None`` means "registry design as published"
    design_params: dict | None = None
    #: path to a BLIF netlist; overrides ``design``/``design_params``
    blif_path: str | None = None
    #: XC4000 family member name; ``None`` auto-picks the smallest fit
    device: str | None = None
    #: routing channel width override (``None`` = family default)
    channel_width: int | None = None
    #: device slack used by the auto-pick
    device_overhead: float = 0.35
    #: back-end strategy (see ``repro.debug.STRATEGY_REGISTRY``)
    strategy: str = "tiled"
    #: effort preset name (see ``repro.pnr.effort.EFFORT_PRESETS``)
    preset: str = "normal"
    #: combinational engine: "compiled" or "interpreted"
    engine: str = "compiled"
    #: campaign seed (stimulus, P&R move sequences)
    seed: int = 1
    n_patterns: int = 64
    n_cycles: int = 8
    #: injected error model (see ``repro.debug.ERROR_KINDS``)
    error_kind: str = "table_bit"
    error_seed: int = 0
    #: number of simultaneous design errors to inject (distinct
    #: instances, each cycle-safe against the previous injections)
    n_errors: int = 1
    #: per-error kind list (length ``n_errors``); ``None`` repeats
    #: ``error_kind`` for every injected error
    error_kinds: list | None = None
    #: diagnose→fix→re-detect round budget; ``None`` allots one round
    #: per injected error (so single-fault runs keep the historical
    #: single-pass behavior)
    max_rounds: int | None = None
    max_probes: int = 8
    goal_size: int = 4
    #: fix verification mode: "simulate" (legacy stimulus replay),
    #: "prove" (bounded equivalence per output cone), or "both"
    verify: str = "simulate"
    #: unrolling depth for the proof; ``None`` uses ``n_cycles``
    prove_frames: int | None = None
    #: fix synthesis mode: "oracle" (back-annotation) or "cegis"
    #: (SAT truth-table synthesis with oracle fallback)
    correction: str = "oracle"
    #: TilingOptions overrides as a plain dict, e.g. ``{"n_tiles": 10}``
    tiling: dict | None = None
    #: tile-configuration cache policy: "shared" (process-wide default
    #: cache), "private" (a cache isolated from the rest of the
    #: process: fresh per `run_spec` call, one campaign-local cache
    #: inside a `CampaignRunner` — use "off" for fully cold runs), or
    #: "off" (no cache)
    cache: str = "shared"
    #: directory for cross-process cache persistence (``--cache-dir``).
    #: It, like the cache-file chaos kinds, takes effect only when
    #: ``run_spec`` owns its cache: a thread campaign persists to the
    #: campaign's ``cache_dir`` and a daemon job to the daemon's
    #: ``--cache-dir``, whatever the spec says
    cache_dir: str | None = None
    #: per-run wall-clock budget in seconds (``None`` = unbounded);
    #: enforced cooperatively at stage boundaries and inside the
    #: localizer/SAT/CEGIS loops — a trip yields ``status="timeout"``
    #: with partial results, never a raise
    timeout_s: float | None = None
    #: per-stage wall-clock budgets, e.g. ``{"localize": 30.0}``
    #: (keys from :data:`STAGE_NAMES`)
    stage_timeouts: dict | None = None
    #: failed-attempt retries before the run reports ``status="failed"``
    #: (each retry steps down the degradation ladder when a rung applies)
    retries: int = 0
    #: base of the seed-stable exponential retry backoff (0 = no sleep)
    retry_backoff_s: float = 0.0
    #: chaos-harness fault injection (see
    #: :class:`repro.resilience.chaos.ChaosConfig`); ``None`` = off
    chaos: dict | None = None

    def __post_init__(self) -> None:
        self.validate()

    # -- validation ----------------------------------------------------

    def validate(self) -> None:
        from repro.api.design import GENERATOR_BUILDERS
        from repro.generators.registry import PAPER_DESIGNS

        if self.blif_path is None:
            if self.design_params is None:
                if self.design not in PAPER_DESIGNS:
                    raise SpecError(
                        f"unknown design {self.design!r}; known designs: "
                        + ", ".join(PAPER_DESIGNS)
                    )
            else:
                if not isinstance(self.design_params, dict):
                    raise SpecError("design_params must be a dict or null")
                if self.design not in GENERATOR_BUILDERS:
                    raise SpecError(
                        f"design {self.design!r} does not accept "
                        "design_params; parameterizable generators: "
                        + ", ".join(sorted(GENERATOR_BUILDERS))
                    )
                import inspect

                accepted = inspect.signature(
                    GENERATOR_BUILDERS[self.design]
                ).parameters
                unknown = sorted(set(self.design_params) - set(accepted))
                if unknown:
                    raise SpecError(
                        f"design_params {unknown} not accepted by "
                        f"generator {self.design!r}; accepted: "
                        + ", ".join(accepted)
                    )
        if self.device is not None and self.device not in _DEVICE_NAMES:
            raise SpecError(
                f"unknown device {self.device!r}; family members: "
                + ", ".join(_DEVICE_NAMES)
            )
        if self.strategy not in STRATEGY_REGISTRY:
            raise SpecError(
                f"unknown strategy {self.strategy!r}; valid strategies: "
                + ", ".join(sorted(STRATEGY_REGISTRY))
            )
        if self.preset not in EFFORT_PRESETS:
            raise SpecError(
                f"unknown preset {self.preset!r}; valid presets: "
                + ", ".join(EFFORT_PRESETS)
            )
        if self.engine not in ENGINE_NAMES:
            raise SpecError(
                f"unknown engine {self.engine!r}; valid engines: "
                + ", ".join(ENGINE_NAMES)
            )
        if self.error_kind not in ERROR_KINDS:
            raise SpecError(
                f"unknown error kind {self.error_kind!r}; valid kinds: "
                + ", ".join(ERROR_KINDS)
            )
        if not isinstance(self.n_errors, int) or self.n_errors < 1:
            raise SpecError("n_errors must be an int >= 1")
        if self.error_kinds is not None:
            if not isinstance(self.error_kinds, list) or not self.error_kinds:
                raise SpecError("error_kinds must be a non-empty list or null")
            for kind in self.error_kinds:
                if kind not in ERROR_KINDS:
                    raise SpecError(
                        f"unknown error kind {kind!r} in error_kinds; "
                        "valid kinds: " + ", ".join(ERROR_KINDS)
                    )
            if len(self.error_kinds) != self.n_errors:
                raise SpecError(
                    f"error_kinds lists {len(self.error_kinds)} kinds "
                    f"but n_errors is {self.n_errors}"
                )
        if self.max_rounds is not None and (
            not isinstance(self.max_rounds, int) or self.max_rounds < 1
        ):
            raise SpecError("max_rounds must be an int >= 1 or null")
        if self.cache not in CACHE_POLICIES:
            raise SpecError(
                f"unknown cache policy {self.cache!r}; valid policies: "
                + ", ".join(CACHE_POLICIES)
            )
        if self.verify not in VERIFY_MODES:
            raise SpecError(
                f"unknown verify mode {self.verify!r}; valid modes: "
                + ", ".join(VERIFY_MODES)
            )
        if self.correction not in CORRECTION_MODES:
            raise SpecError(
                f"unknown correction mode {self.correction!r}; valid "
                "modes: " + ", ".join(CORRECTION_MODES)
            )
        if self.prove_frames is not None and (
            not isinstance(self.prove_frames, int) or self.prove_frames < 1
        ):
            raise SpecError("prove_frames must be an int >= 1 or null")
        if self.tiling is not None:
            if not isinstance(self.tiling, dict):
                raise SpecError("tiling must be a dict or null")
            unknown = sorted(set(self.tiling) - set(_TILING_KEYS))
            if unknown:
                raise SpecError(
                    f"unknown tiling keys {unknown}; valid keys: "
                    + ", ".join(_TILING_KEYS)
                )
        for name, value, floor in (
            ("n_patterns", self.n_patterns, 1),
            ("n_cycles", self.n_cycles, 1),
            ("max_probes", self.max_probes, 0),
            ("goal_size", self.goal_size, 1),
        ):
            if not isinstance(value, int) or value < floor:
                raise SpecError(f"{name} must be an int >= {floor}")
        if self.timeout_s is not None and (
            not isinstance(self.timeout_s, (int, float)) or self.timeout_s <= 0
        ):
            raise SpecError("timeout_s must be a positive number or null")
        if self.stage_timeouts is not None:
            if not isinstance(self.stage_timeouts, dict):
                raise SpecError("stage_timeouts must be a dict or null")
            unknown = sorted(set(self.stage_timeouts) - set(STAGE_NAMES))
            if unknown:
                raise SpecError(
                    f"unknown stage_timeouts stages {unknown}; valid "
                    "stages: " + ", ".join(STAGE_NAMES)
                )
            for stage, seconds in self.stage_timeouts.items():
                if not isinstance(seconds, (int, float)) or seconds <= 0:
                    raise SpecError(
                        f"stage_timeouts[{stage!r}] must be a positive number"
                    )
        if not isinstance(self.retries, int) or self.retries < 0:
            raise SpecError("retries must be an int >= 0")
        if (
            not isinstance(self.retry_backoff_s, (int, float))
            or self.retry_backoff_s < 0
        ):
            raise SpecError("retry_backoff_s must be a number >= 0")
        if self.chaos is not None:
            from repro.resilience.chaos import ChaosConfig

            ChaosConfig.coerce(self.chaos)  # raises SpecError when bad

    # -- serialization -------------------------------------------------

    def to_dict(self) -> dict:
        """A plain-JSON dict; ``from_dict`` inverts it field-for-field."""
        out: dict = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, dict):
                value = dict(value)
            elif isinstance(value, list):
                value = list(value)
            out[f.name] = value
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "RunSpec":
        if not isinstance(data, dict):
            raise SpecError(f"spec must be a JSON object, got {type(data)}")
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise SpecError(
                f"unknown spec fields {unknown}; valid fields: "
                + ", ".join(sorted(known))
            )
        return cls(**data)

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "RunSpec":
        return cls.from_dict(json.loads(text))

    def digest(self) -> str:
        """Stable identity of the work this spec describes.

        SHA-256 over the sorted-key JSON form with
        :data:`RESUME_EXCLUDED_FIELDS` removed — the campaign journal
        keys completed runs by this digest so ``--resume`` can skip
        them even when harness-only fields (chaos injection, cache
        location) differ between the interrupted and resumed
        invocations.
        """
        data = {
            k: v for k, v in self.to_dict().items()
            if k not in RESUME_EXCLUDED_FIELDS
        }
        text = json.dumps(data, sort_keys=True)
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    # -- derived views -------------------------------------------------

    def replaced(self, **overrides) -> "RunSpec":
        """A copy with the given fields replaced (re-validated)."""
        data = self.to_dict()
        data.update(overrides)
        return RunSpec.from_dict(data)

    def tiling_options(self):
        """The :class:`~repro.tiling.partition.TilingOptions` or None."""
        from repro.tiling.partition import TilingOptions

        if self.tiling is None:
            return None
        return TilingOptions(**self.tiling)

    def effort_preset(self):
        return EFFORT_PRESETS[self.preset]

    def resolved_error_kinds(self) -> list:
        """The per-error kind list the injector consumes."""
        if self.error_kinds:
            return list(self.error_kinds)
        return [self.error_kind] * self.n_errors

    def effective_max_rounds(self) -> int:
        """Round budget: explicit, or one round per injected error."""
        if self.max_rounds is not None:
            return self.max_rounds
        return max(self.n_errors, 1)

    @property
    def design_label(self) -> str:
        if self.blif_path is not None:
            import os

            return os.path.splitext(os.path.basename(self.blif_path))[0]
        return self.design

"""Exception hierarchy shared by every repro subsystem.

All library errors derive from :class:`ReproError` so callers can catch a
single base class.  Subsystems raise the most specific subclass that
describes the failure.
"""


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class NetlistError(ReproError):
    """Structural problem in a netlist (duplicate names, bad connectivity)."""


class ValidationError(NetlistError):
    """A netlist failed a structural validation check."""


class SynthesisError(ReproError):
    """Technology mapping or packing could not complete."""


class ArchitectureError(ReproError):
    """The requested design does not fit the architecture model."""


class PlacementError(ReproError):
    """The placer could not produce a legal placement."""


class RoutingError(ReproError):
    """The router could not route every net within channel capacity."""


class TilingError(ReproError):
    """Tile partitioning or a tile-confined operation failed."""


class DebugFlowError(ReproError):
    """The emulation debug loop was driven into an invalid state."""


class LocalizationDrained(DebugFlowError):
    """Probe verdicts eliminated every localization candidate.

    Deterministic for a spec: a retry drains the same way unless it
    changes the localization strategy.
    """


class UnknownStrategyError(DebugFlowError, ValueError):
    """An unknown back-end strategy name was requested.

    Doubles as a :class:`ValueError` so spec validation and CLI argument
    parsing can treat a bad name like any other bad input, while callers
    catching :class:`DebugFlowError` keep working.
    """


class SpecError(ReproError, ValueError):
    """A :class:`repro.api.RunSpec` failed validation."""


class EmulationError(ReproError):
    """The emulator or bitstream model detected an inconsistency."""


class DeadlineExceeded(ReproError):
    """A cooperative wall-clock budget ran out mid-run.

    Raised by :func:`repro.resilience.budget.check_deadline` at stage
    boundaries and inside the long compute loops (localizer probes, SAT
    search, CEGIS iterations).  Carries enough context for a structured
    :class:`repro.resilience.failure.RunFailure` record.
    """

    def __init__(self, where: str = "", label: str = "run",
                 seconds: float = 0.0, elapsed: float = 0.0) -> None:
        self.where = where
        self.label = label
        self.seconds = seconds
        self.elapsed = elapsed
        super().__init__(
            f"deadline {label!r} ({seconds:.3f}s) exceeded after "
            f"{elapsed:.3f}s at {where or 'stage boundary'}"
        )


class ChaosError(ReproError):
    """An infrastructure fault injected by the chaos harness.

    Never raised outside a run whose spec (or campaign) asked for fault
    injection; the resilient executor turns it into a structured
    ``failed`` result exactly like a real worker exception.
    """

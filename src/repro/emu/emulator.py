"""Cycle emulator: runs the placed design like the emulation board would.

The emulator executes the *mapped netlist that the layout implements* —
it refuses to run a layout whose placement is incomplete or whose
packing disagrees with the netlist, the moral equivalent of loading a
stale bitstream.  Functionally it is the same levelized engine as the
golden model (hardware emulation is functionally exact; that is the
point of emulation), so any output divergence from the golden reference
is a *design error*, not an artifact.

The emulator is a :class:`~repro.netlist.simulate.Run` on a checked
layout: each :meth:`Emulator.step` evaluates one clock cycle and keeps
its row of every slot's word, so detection's pass
(:func:`repro.netlist.simulate.record`) leaves the DUT's whole trace
behind, and localization reads its probe verdicts from that trace.

Observation flags: instrumentation (:mod:`repro.debug.instrument`) adds
primary outputs named ``obs_flag*`` and ``obs_probe_*``.
:meth:`Emulator.step` returns them with the functional outputs, and
detection (:func:`repro.debug.detect.compare_runs`) judges only the
outputs the golden model also has.
"""

from __future__ import annotations

from repro.errors import EmulationError
from repro.netlist.simulate import Run, make_engine
from repro.pnr.flow import Layout


class Emulator(Run):
    """Executes a placed-and-routed design cycle by cycle.

    ``engine`` selects the combinational evaluator: ``"compiled"`` (the
    instruction-tape kernel, shared per netlist and kept current across
    ECO edits) or ``"interpreted"`` (the retained reference engine).
    Long-lived consumers like the localizer construct one emulator and
    call :meth:`refresh` after each committed change instead of
    rebuilding — construction re-checks the whole configuration and
    re-levelizes, which is exactly the per-probe cost this avoids.
    """

    def __init__(self, layout: Layout, engine: str = "compiled") -> None:
        self.layout = layout
        self._check_configuration()
        super().__init__(layout.packed.netlist, engine)

    def _check_configuration(self) -> None:
        packed = self.layout.packed
        try:
            self.layout.placement.check_complete()
        except Exception as exc:
            raise EmulationError(f"cannot emulate: {exc}") from exc
        configured = packed.block_of_instance
        for inst in packed.netlist.instances():
            if inst.name not in configured and not inst.is_io:
                raise EmulationError(
                    f"instance {inst.name} has no configured block; "
                    "re-pack before emulating"
                )

    def refresh(self, layout: Layout | None = None) -> None:
        """Track a committed ECO without rebuilding the emulator.

        ``layout`` replaces the emulated layout (strategies may hand out
        a new object after a commit) but must implement the same
        netlist.  The compiled kernel re-lowers only the fanout region
        of the netlist's edits since its last sync.
        """
        if layout is not None:
            if layout.packed.netlist is not self.netlist:
                raise EmulationError(
                    "refresh() cannot switch to a different netlist; "
                    "construct a new Emulator"
                )
            self.layout = layout
        self._check_configuration()
        if self.engine == "interpreted":
            # re-levelize: the interpreted engine snapshots topo order
            self.view = make_engine(self.netlist, self.engine)
        else:
            self.view.ensure_current()

    def step(self, inputs: dict[str, int], n_patterns: int = 1) -> dict[str, int]:
        """One emulated clock cycle: the functional and observation
        outputs; ``row`` keeps every slot's word.

        Defined here rather than inherited so that emulation steps are
        a method of their own, timed apart from golden and replay runs
        (perfbench's ``emu.step`` layer wraps this attribute).
        """
        return super().step(inputs, n_patterns)

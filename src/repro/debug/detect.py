"""Error detection: golden-model vs emulation comparison (step 21).

One reference judges every verdict of the debug loop: the golden
model's response to the stimulus.  :class:`GoldenTrace` simulates it
once per stimulus and keeps the run's
:class:`~repro.netlist.simulate.Trace` (each cycle's row of every
slot's word), which serves both views the loop reads: a net's words
per cycle (probe verdicts, SAT observations) and the primary outputs
(detection, fix checks).  A new stimulus is a new trace.

Detection runs the DUT through the same stepping loop
(:func:`repro.netlist.simulate.record` over an
:class:`~repro.emu.Emulator`), compares its outputs with the golden
trace's cycle by cycle and pattern by pattern, and hands back the DUT's
own trace with the result: a list of :class:`Mismatch` records — which
output, which cycle, which patterns — the raw material localization
works from.  The DUT trace is bound to its kernel's generation, so
localization reads probe verdicts from it while probe commits leave it
current.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from repro.emu.emulator import Emulator
from repro.netlist.core import Netlist
from repro.netlist.simulate import Run, Trace, record


@dataclass(frozen=True)
class Mismatch:
    """One diverging primary output."""

    cycle: int
    output: str
    diff_mask: int  # bit i set = pattern i diverged

    @property
    def n_patterns_failing(self) -> int:
        return bin(self.diff_mask).count("1")


class GoldenTrace:
    """The golden model's response to one stimulus, simulated once.

    The simulation runs lazily, on first read of :attr:`recorded`,
    :attr:`outputs` or :meth:`words`.  The stimulus is shaped by
    :func:`repro.netlist.simulate.stimulus_inputs`: input ports missing
    from a cycle's map read 0.
    """

    def __init__(
        self,
        golden: Netlist,
        stimulus: list[dict[str, int]],
        n_patterns: int,
        engine: str = "compiled",
    ) -> None:
        self.golden = golden
        self.stimulus = stimulus
        self.n_patterns = n_patterns
        self.engine = engine

    @cached_property
    def recorded(self) -> Trace:
        """The golden run from reset: each cycle's row and outputs."""
        return record(
            Run(self.golden, self.engine), self.stimulus, self.n_patterns
        )

    @property
    def outputs(self) -> list[dict[str, int]]:
        """Golden primary-output words, per cycle."""
        return self.recorded.outputs

    def words(self, net: str) -> list[int] | None:
        """Golden word on ``net`` per cycle; None when the golden model
        drives no such net (such a net is never judged)."""
        golden = self.golden
        if not golden.has_net(net) or golden.net(net).driver is None:
            return None
        return self.recorded.words(net)


def compare_runs(
    dut_outputs: list[dict[str, int]],
    golden_outputs: list[dict[str, int]],
) -> list[Mismatch]:
    """Mismatches between two per-cycle output streams.

    Outputs present on only one side (e.g. DUT-side observation flags)
    are ignored — detection judges the *functional* interface.
    """
    mismatches: list[Mismatch] = []
    for cycle, (dut, gold) in enumerate(zip(dut_outputs, golden_outputs)):
        for name in sorted(dut.keys() & gold.keys()):
            diff = dut[name] ^ gold[name]
            if diff:
                mismatches.append(Mismatch(cycle, name, diff))
    return mismatches


def detect_on_layout(
    layout, trace: GoldenTrace
) -> tuple[list[Mismatch], Trace]:
    """Emulate the layout on the trace's stimulus and compare.

    Returns the mismatches and the DUT's trace.  The DUT's stimulus is
    shaped by :func:`repro.netlist.simulate.stimulus_inputs` (control
    inputs missing from it read 0, disabled), and observation outputs
    are excluded by :func:`compare_runs`.  The DUT runs on the trace's
    engine (see :func:`repro.netlist.make_engine`).
    """
    dut = record(
        Emulator(layout, engine=trace.engine), trace.stimulus,
        trace.n_patterns,
    )
    return compare_runs(dut.outputs, trace.outputs), dut

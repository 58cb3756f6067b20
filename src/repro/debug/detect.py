"""Error detection: golden-model vs emulation comparison (step 21).

One reference judges every verdict of the debug loop: the golden
model's response to the stimulus.  :class:`GoldenTrace` simulates it
once per stimulus, through the engine's all-net ``probe`` view, and
serves both views the loop reads — every net's word per cycle (probe
verdicts, SAT observations) and the primary-output projection
(detection, fix checks).  A new stimulus is a new trace.

Detection compares the DUT's emulated outputs with the trace's
outputs cycle by cycle and pattern by pattern.  The result is a list of
:class:`Mismatch` records — which output, which cycle, which patterns —
the raw material localization works from.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from repro.emu.emulator import Emulator
from repro.netlist.core import Netlist, port_name
from repro.netlist.simulate import initial_state, make_engine, stimulus_inputs


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

    The simulation runs lazily, on first read of :attr:`nets` or
    :attr:`outputs`.  The stimulus is shaped by
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
    def nets(self) -> list[dict[str, int]]:
        """Golden word on every net, per cycle."""
        comb = make_engine(self.golden, self.engine)
        state = initial_state(self.golden, self.n_patterns)
        flops = self.golden.flip_flops()
        history = []
        for inputs in stimulus_inputs(self.golden, self.stimulus):
            values = comb.probe(inputs, self.n_patterns, state)
            history.append(values)
            # the probe view already carries every FF's D-net word, so
            # the next state comes for free (no second full evaluation)
            state = {ff.name: values[ff.inputs[0].name] for ff in flops}
        return history

    @cached_property
    def outputs(self) -> list[dict[str, int]]:
        """Golden primary-output words, per cycle."""
        ports = [
            (port_name(po), po.inputs[0].name)
            for po in self.golden.primary_outputs()
        ]
        return [
            {port: values[net] for port, net in ports}
            for values in self.nets
        ]


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


def detect_on_layout(layout, trace: GoldenTrace) -> list[Mismatch]:
    """Emulate the layout on the trace's stimulus and compare.

    The DUT's stimulus is shaped by
    :func:`repro.netlist.simulate.stimulus_inputs` (control inputs
    missing from it read 0, disabled), and observation outputs are
    excluded by :func:`compare_runs`.  The DUT runs on the trace's
    engine (see :func:`repro.netlist.make_engine`).
    """
    n_patterns = trace.n_patterns
    emulator = Emulator(layout, engine=trace.engine)
    emulator.reset(n_patterns)
    dut_out = [
        emulator.step(inputs, n_patterns)
        for inputs in stimulus_inputs(layout.packed.netlist, trace.stimulus)
    ]
    return compare_runs(dut_out, trace.outputs)

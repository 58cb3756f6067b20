"""Levelized bit-parallel logic simulation.

Values are Python ints used as bit-vectors: bit ``i`` of a word is the
signal value under test pattern ``i``.  A single pass therefore evaluates
an arbitrary number of patterns at once, which keeps golden-model
emulation of the thousand-CLB designs fast enough for the debug loop.

Two combinational engines share one interface.  Each maps the nets it
evaluates to dense *slots* (``slots``); ``row(inputs, n_patterns,
state)`` evaluates one clock cycle into a *row*, a list holding every
slot's word, and ``outputs_of`` / ``state_of`` read the primary outputs
and the next flip-flop state off a row (``next_state`` is both):

* :class:`CombinationalSimulator` — the retained interpreted engine,
  walking instances and dispatching through ``eval_gate``;
* :class:`repro.netlist.compiled.CompiledKernel` — the instruction-tape
  engine (bit-exact, much faster); selected with ``engine="compiled"``
  and shared per netlist via :func:`repro.netlist.compiled.kernel_for`.

A :class:`Trace` is the one record of a run from reset: every cycle's
row and outputs.  :func:`steps` is the one stepping loop, over a
:class:`Run` (a netlist on one engine) or an :class:`repro.emu.Emulator`
(a placed layout); :func:`record` keeps its rows in a trace (the golden
trace, detection's DUT trace) and :func:`replay_outputs` keeps only its
outputs.  :func:`stimulus_inputs` is the one place that shapes a
stimulus to a netlist's input ports.
"""

from __future__ import annotations

from repro.errors import NetlistError
from repro.netlist.cells import CellKind, eval_gate
from repro.netlist.core import Netlist, port_name


def initial_state(netlist: Netlist, n_patterns: int) -> dict[str, int]:
    """Every FF's init value replicated across ``n_patterns`` patterns.

    The single source of truth for reset state: every :class:`Run`
    (the emulator included) resets to it.
    """
    mask = (1 << n_patterns) - 1
    return {
        ff.name: (mask if ff.params.get("init", 0) else 0)
        for ff in netlist.flip_flops()
    }


def stimulus_inputs(
    netlist: Netlist, stimulus: list[dict[str, int]]
) -> list[dict[str, int]]:
    """Each cycle's input map over exactly ``netlist``'s input ports.

    Ports missing from a cycle's map read 0 — the emulator's contract
    for disabled control inputs — and names that are not ports of
    ``netlist`` are dropped.  Every run over a stimulus (replays, the
    golden trace, detection, probe verdicts) shapes it here, so each
    judges the same interface.
    """
    ports = [port_name(pi) for pi in netlist.primary_inputs()]
    return [{port: cycle.get(port, 0) for port in ports} for cycle in stimulus]


def make_engine(netlist: Netlist, engine: str = "compiled"):
    """Combinational engine factory: ``"compiled"`` or ``"interpreted"``.

    The compiled engine is shared per netlist (one lowering reused by
    every consumer); the interpreted engine is constructed fresh.
    """
    if engine == "compiled":
        from repro.netlist.compiled import kernel_for

        return kernel_for(netlist)
    if engine == "interpreted":
        return CombinationalSimulator(netlist)
    raise NetlistError(
        f"unknown engine {engine!r}; choose 'compiled' or 'interpreted'"
    )


class CombinationalSimulator:
    """Evaluate the combinational view of a netlist on pattern words.

    Flip-flops are pseudo-inputs (their Q word comes from ``state``;
    a missing FF reads its init value) and pseudo-outputs (their D
    words are the next state).  The slots are the output nets of the
    instances in topological order; the engine keeps no generation,
    so a trace it records is never current for a later run.
    """

    generation = None

    def __init__(self, netlist: Netlist) -> None:
        self.netlist = netlist
        self._order = [
            inst
            for inst in netlist.topo_order()
            if inst.kind is not CellKind.OUTPUT
        ]
        self.slots = {
            inst.output.name: i for i, inst in enumerate(self._order)
        }
        self._outputs = [
            (port_name(po), self.slots[po.inputs[0].name])
            for po in netlist.primary_outputs()
        ]
        self._ffs = [
            (ff.name, self.slots[ff.inputs[0].name])
            for ff in netlist.flip_flops()
        ]

    def outputs_of(self, row: list[int]) -> dict[str, int]:
        return {name: row[slot] for name, slot in self._outputs}

    def state_of(self, row: list[int]) -> dict[str, int]:
        return {name: row[slot] for name, slot in self._ffs}

    def next_state(
        self,
        inputs: dict[str, int],
        n_patterns: int,
        state: dict[str, int],
    ) -> tuple[dict[str, int], dict[str, int]]:
        """Return (outputs, next FF state) for one clock cycle."""
        row = self.row(inputs, n_patterns, state)
        return self.outputs_of(row), self.state_of(row)

    def row(
        self, inputs: dict[str, int], n_patterns: int, state: dict[str, int]
    ) -> list[int]:
        """Every slot's word for one clock cycle."""
        if n_patterns < 1:
            raise NetlistError("need at least one pattern")
        mask = (1 << n_patterns) - 1
        slots = self.slots
        values = [0] * len(self._order)
        for i, inst in enumerate(self._order):
            if inst.kind is CellKind.INPUT:
                port = port_name(inst)
                if port not in inputs:
                    raise NetlistError(f"no stimulus for primary input {port!r}")
                word = inputs[port] & mask
            elif inst.kind is CellKind.DFF:
                if inst.name in state:
                    word = state[inst.name] & mask
                else:
                    init = inst.params.get("init", 0)
                    word = mask if init else 0
            else:
                in_words = [values[slots[net.name]] for net in inst.inputs]
                word = eval_gate(
                    inst.kind, in_words, mask, table=inst.params.get("table")
                )
            values[i] = word
        return values


class Trace:
    """Every cycle's row and outputs of one run from reset.

    ``slots`` and ``generation`` are the engine's when the run was
    recorded.  A kernel only adds slots within one generation, so while
    the generation holds, a net the rows cover keeps its slot and its
    words: the edits since were additive and changed no recorded word.
    """

    def __init__(self, view, rows, outputs) -> None:
        self.slots = view.slots
        self.generation = view.generation
        self.rows: list[list[int]] = rows
        self.outputs: list[dict[str, int]] = outputs

    def current(self, view) -> bool:
        """Whether the rows still hold ``view``'s words: the same
        kernel generation (an interpreted trace never is)."""
        if self.generation is None:
            return False
        view.ensure_current()
        return view.generation == self.generation

    def words(self, net: str) -> list[int] | None:
        """``net``'s word on each cycle, or None if no row holds it."""
        slot = self.slots.get(net)
        if slot is None or not self.rows or slot >= len(self.rows[0]):
            return None
        return [row[slot] for row in self.rows]


class Run:
    """A netlist stepped from reset on one engine view.

    ``reset``, then one ``step`` per clock cycle; ``row`` holds the
    last cycle's words.
    """

    def __init__(self, netlist: Netlist, engine: str = "compiled") -> None:
        self.netlist = netlist
        self.engine = engine
        self.view = make_engine(netlist, engine)
        self.reset()

    def reset(self, n_patterns: int = 1) -> None:
        self.state = initial_state(self.netlist, n_patterns)
        self.row: list[int] = []

    def step(self, inputs: dict[str, int], n_patterns: int = 1) -> dict[str, int]:
        view = self.view
        self.row = view.row(inputs, n_patterns, self.state)
        self.state = view.state_of(self.row)
        return view.outputs_of(self.row)


def steps(run: Run, stimulus: list[dict[str, int]], n_patterns: int):
    """The one run from reset: reset ``run``, then step it over
    ``stimulus``, yielding each cycle's outputs (``run.row`` holds that
    cycle's words until the next step).

    The inputs are shaped by :func:`stimulus_inputs`, so every run
    (golden, DUT, replay) judges the same interface.
    """
    run.reset(n_patterns)
    for inputs in stimulus_inputs(run.netlist, stimulus):
        yield run.step(inputs, n_patterns)


def record(run: Run, stimulus: list[dict[str, int]], n_patterns: int) -> Trace:
    """The :class:`Trace` of :func:`steps`: each cycle's outputs and
    row."""
    rows, outputs = [], []
    for out in steps(run, stimulus, n_patterns):
        outputs.append(out)
        rows.append(run.row)
    return Trace(run.view, rows, outputs)


def replay_outputs(
    netlist: Netlist,
    stimulus: list[dict[str, int]],
    n_patterns: int = 1,
    engine: str = "compiled",
) -> list[dict[str, int]]:
    """Per-cycle outputs of a run from reset over ``stimulus``: the
    outputs of the traces' loop (:func:`steps`) without the rows, so
    the DUT replays of counterexamples and CEGIS checks judge the same
    interface as detection."""
    return list(steps(Run(netlist, engine), stimulus, n_patterns))

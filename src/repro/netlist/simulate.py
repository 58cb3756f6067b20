"""Levelized bit-parallel logic simulation.

Values are Python ints used as bit-vectors: bit ``i`` of a word is the
signal value under test pattern ``i``.  A single pass therefore evaluates
an arbitrary number of patterns at once, which keeps golden-model
emulation of the thousand-CLB designs fast enough for the debug loop.

Two combinational engines are provided behind one interface of two
views, ``next_state`` (outputs and next FF state) and ``probe`` (the
word on every net, read by :class:`repro.debug.detect.GoldenTrace`):

* :class:`CombinationalSimulator` — the retained interpreted engine,
  walking instances and dispatching through ``eval_gate``;
* :class:`repro.netlist.compiled.CompiledKernel` — the instruction-tape
  engine (bit-exact, much faster, and able to replay a cone slice for
  probe verdicts); selected with ``engine="compiled"`` and shared per
  netlist via :func:`repro.netlist.compiled.kernel_for`.

:func:`replay_outputs` is the one netlist run from reset over a
stimulus, and :func:`stimulus_inputs` the one place that shapes a
stimulus to a netlist's input ports.
"""

from __future__ import annotations

from repro.errors import NetlistError
from repro.netlist.cells import CellKind, eval_gate
from repro.netlist.core import Netlist, port_name


def initial_state(netlist: Netlist, n_patterns: int) -> dict[str, int]:
    """Every FF's init value replicated across ``n_patterns`` patterns.

    The single source of truth for reset state, shared by
    :func:`replay_outputs`, the emulator and the golden trace.
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
    words are the next state).
    """

    def __init__(self, netlist: Netlist) -> None:
        self.netlist = netlist
        self._order = [
            inst
            for inst in netlist.topo_order()
            if inst.kind is not CellKind.OUTPUT
        ]
        self._outputs = [
            (port_name(po), po.inputs[0]) for po in netlist.primary_outputs()
        ]

    def next_state(
        self,
        inputs: dict[str, int],
        n_patterns: int,
        state: dict[str, int],
    ) -> tuple[dict[str, int], dict[str, int]]:
        """Return (outputs, next FF state) for one clock cycle."""
        values = self._evaluate(inputs, n_patterns, state)
        outputs = {name: values[net.name] for name, net in self._outputs}
        next_state = {
            ff.name: values[ff.inputs[0].name] for ff in self.netlist.flip_flops()
        }
        return outputs, next_state

    def probe(
        self,
        inputs: dict[str, int],
        n_patterns: int,
        state: dict[str, int] | None = None,
    ) -> dict[str, int]:
        """Return the word on *every* net — read by the golden trace."""
        return self._evaluate(inputs, n_patterns, state or {})

    def _evaluate(
        self, inputs: dict[str, int], n_patterns: int, state: dict[str, int]
    ) -> dict[str, int]:
        if n_patterns < 1:
            raise NetlistError("need at least one pattern")
        mask = (1 << n_patterns) - 1
        values: dict[str, int] = {}
        for inst in self._order:
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
                in_words = [values[net.name] for net in inst.inputs]
                word = eval_gate(
                    inst.kind, in_words, mask, table=inst.params.get("table")
                )
            values[inst.output.name] = word
        return values


def replay_outputs(
    netlist: Netlist,
    stimulus: list[dict[str, int]],
    n_patterns: int = 1,
    engine: str = "compiled",
) -> list[dict[str, int]]:
    """Per-cycle outputs of a run from reset over ``stimulus``.

    The inputs are shaped by :func:`stimulus_inputs`, as
    :class:`repro.debug.detect.GoldenTrace` and detection shape theirs,
    so the DUT replays of counterexamples and CEGIS checks judge the
    same interface as detection.
    """
    comb = make_engine(netlist, engine)
    state = initial_state(netlist, n_patterns)
    outputs = []
    for inputs in stimulus_inputs(netlist, stimulus):
        out, state = comb.next_state(inputs, n_patterns, state)
        outputs.append(out)
    return outputs

"""Levelized bit-parallel logic simulation.

Values are Python ints used as bit-vectors: bit ``i`` of a word is the
signal value under test pattern ``i``.  A single pass therefore evaluates
an arbitrary number of patterns at once, which keeps golden-model
emulation of the thousand-CLB designs fast enough for the debug loop.

Two combinational engines are provided behind one interface
(``run`` / ``next_state`` / ``probe``):

* :class:`CombinationalSimulator` — the retained interpreted engine,
  walking instances and dispatching through ``eval_gate``;
* :class:`repro.netlist.compiled.CompiledKernel` — the instruction-tape
  engine (bit-exact, much faster, and able to replay a cone slice for
  probe verdicts); selected with ``engine="compiled"`` and shared per
  netlist via :func:`repro.netlist.compiled.kernel_for`.

:class:`SequentialSimulator` layers flip-flop state on either engine and
is the reference model for :mod:`repro.emu`.
"""

from __future__ import annotations

from repro.errors import NetlistError
from repro.netlist.cells import CellKind, eval_gate
from repro.netlist.core import Netlist, port_name


def initial_state(netlist: Netlist, n_patterns: int) -> dict[str, int]:
    """Every FF's init value replicated across ``n_patterns`` patterns.

    The single source of truth for reset state, shared by the
    sequential simulator, the emulator and the golden trace.
    """
    mask = (1 << n_patterns) - 1
    return {
        ff.name: (mask if ff.params.get("init", 0) else 0)
        for ff in netlist.flip_flops()
    }


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

    Flip-flops are treated as pseudo-inputs (their Q value may be
    supplied via ``state``) and pseudo-outputs (next-state D values are
    returned when ``with_state`` is set).
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

    def run(
        self,
        inputs: dict[str, int],
        n_patterns: int,
        state: dict[str, int] | None = None,
    ) -> dict[str, int]:
        """Return primary-output words for the given input words.

        ``inputs`` maps primary-input port names to words; ``state`` maps
        DFF instance names to current Q words (missing FFs use their init
        value replicated across patterns).
        """
        values = self._evaluate(inputs, n_patterns, state or {})
        return {name: values[net.name] for name, net in self._outputs}

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
        """Return the word on *every* net — used by error localization."""
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


class SequentialSimulator:
    """Cycle-accurate reference model with explicit FF state."""

    def __init__(self, netlist: Netlist, engine: str = "compiled") -> None:
        self._comb = make_engine(netlist, engine)
        self.netlist = netlist
        self.engine = engine
        self.state: dict[str, int] = {}
        self.cycle = 0
        self.reset(n_patterns=1)

    def reset(self, n_patterns: int = 1) -> None:
        """Load every FF with its init value replicated over patterns."""
        self.state = initial_state(self.netlist, n_patterns)
        self.cycle = 0

    def step(self, inputs: dict[str, int], n_patterns: int = 1) -> dict[str, int]:
        """Advance one clock: returns this cycle's primary outputs."""
        outputs, next_state = self._comb.next_state(inputs, n_patterns, self.state)
        self.state = next_state
        self.cycle += 1
        return outputs

    def run(
        self, stimulus: list[dict[str, int]], n_patterns: int = 1
    ) -> list[dict[str, int]]:
        """Apply a list of per-cycle input maps; returns per-cycle outputs."""
        return [self.step(cycle_inputs, n_patterns) for cycle_inputs in stimulus]


def simulate_words(
    netlist: Netlist, inputs: dict[str, int], n_patterns: int
) -> dict[str, int]:
    """One-shot combinational simulation convenience wrapper."""
    return CombinationalSimulator(netlist).run(inputs, n_patterns)


def replay_outputs(
    netlist: Netlist,
    stimulus: list[dict[str, int]],
    n_patterns: int = 1,
    engine: str = "compiled",
) -> list[dict[str, int]]:
    """Per-cycle outputs of a run from reset over ``stimulus``.

    Ports missing from a cycle's map read 0 — the emulator's contract
    for disabled control inputs, which
    :class:`repro.debug.detect.GoldenTrace` shares, so the DUT replays
    of counterexamples and CEGIS checks judge the same interface as
    detection.
    """
    sim = SequentialSimulator(netlist, engine=engine)
    sim.reset(n_patterns)
    ports = {port_name(pi) for pi in netlist.primary_inputs()}
    return [
        sim.step({p: cycle.get(p, 0) for p in ports}, n_patterns)
        for cycle in stimulus
    ]

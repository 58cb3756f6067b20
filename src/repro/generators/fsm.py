"""Finite-state-machine benchmarks (styr / sand / planet1 class).

The MCNC FSM benchmarks are controller state machines distributed as
KISS2 state tables.  The generator synthesizes a random-but-deterministic
Moore/Mealy machine with the published interface profile (state, input
and output counts), using binary state encoding, a one-hot state decode,
and per-state next-state/output logic — the structure a synthesis tool
produces from a KISS2 table.

Because the paper's CLB counts include the surrounding logic the MCNC
versions carry, each benchmark adds a calibrated amount of random fabric
(:mod:`repro.generators.random_logic`) wired to the FSM outputs; the
calibration targets are asserted by tests against Table 1 ±15 %.
"""

from __future__ import annotations

import math

from repro.generators.random_logic import random_sequential_netlist
from repro.netlist.builder import NetlistBuilder, Word
from repro.netlist.core import Netlist
from repro.rng import make_rng


def make_fsm(
    name: str,
    n_states: int,
    n_inputs: int,
    n_outputs: int,
    seed: int = 0,
    fabric_gates: int = 0,
    fabric_ffs: int = 0,
) -> Netlist:
    """Synthesize a deterministic random FSM plus calibrated fabric.

    Transition structure: for every state, the next state is chosen by a
    balanced binary decision over a randomly chosen input bit pair, which
    yields transition logic of realistic density (2 fan-out states per
    state per condition).  Outputs are Moore-style from the state decode,
    XOR-blended with one input bit each so output cones are testable.
    """
    rng = make_rng(seed, "fsm", name)
    state_bits = max(1, math.ceil(math.log2(max(2, n_states))))

    if fabric_gates:
        netlist = random_sequential_netlist(
            name,
            n_inputs=n_inputs,
            n_outputs=0,
            n_ffs=fabric_ffs,
            n_gates=fabric_gates,
            seed=seed,
        )
        builder = NetlistBuilder(netlist)
        inputs = [netlist.net(f"in{i}") for i in range(n_inputs)]
    else:
        netlist = Netlist(name)
        builder = NetlistBuilder(netlist)
        inputs = [netlist.add_input(f"in{i}") for i in range(n_inputs)]

    # state register with a decode of the reachable codes only
    state_q: Word = [netlist.add_net(f"state_q[{b}]") for b in range(state_bits)]
    inverted = [builder.not_(bit) for bit in state_q]
    one_hot = []
    for code in range(n_states):
        literals = [
            state_q[j] if (code >> j) & 1 else inverted[j]
            for j in range(state_bits)
        ]
        one_hot.append(builder.and_(*literals))

    # per-state transition: two candidate successors selected by an input
    next_state_terms: list[Word] = []
    for s in range(n_states):
        succ_a = rng.randrange(n_states)
        succ_b = rng.randrange(n_states)
        cond = inputs[rng.randrange(len(inputs))]
        target = builder.mux_word(
            cond,
            builder.const_word(succ_a, state_bits),
            builder.const_word(succ_b, state_bits),
        )
        gated = [builder.and_(one_hot[s], bit) for bit in target]
        next_state_terms.append(gated)

    next_state: Word = []
    for b in range(state_bits):
        column = [term[b] for term in next_state_terms]
        next_state.append(builder.or_(*column))

    for b in range(state_bits):
        netlist.add_dff(next_state[b], name=f"state_ff[{b}]", output=state_q[b])

    # Moore outputs from the decode, blended with one input each
    for o in range(n_outputs):
        members = [
            one_hot[s] for s in range(n_states) if rng.random() < 0.33
        ] or [one_hot[rng.randrange(n_states)]]
        raw = builder.or_(*members) if len(members) > 1 else members[0]
        blended = builder.xor_(raw, inputs[rng.randrange(len(inputs))])
        netlist.add_output(f"out{o}", blended)
    return netlist

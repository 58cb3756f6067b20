"""Property tests bridging the SAT and simulation subsystems.

Random netlists from the existing generators, two obligations:

* the Tseitin-encoded CNF must agree with the compiled kernel on the
  value of every output under random input assignments (the encodings
  and the instruction tape are two independent interpretations of the
  same netlist — they may never drift);
* a miter between a netlist and an error-injected copy must be SAT,
  and the extracted counterexample must reproduce the mismatch in
  simulation.
"""

import pytest

from repro.debug.errors import inject_error
from repro.debug.testgen import random_stimulus
from repro.generators.random_logic import (
    random_combinational_netlist,
    random_sequential_netlist,
)
from repro.netlist.simulate import replay_outputs
from repro.sat.cnf import CNF, GateBuilder
from repro.sat.encode import CircuitEncoder
from repro.sat.equiv import counterexample_mismatches, prove_equivalence
from repro.sat.solver import Solver
from repro.synth.techmap import map_to_luts

N_PATTERNS = 8
FRAMES = 3


def _assume_inputs(enc, stimulus, pattern):
    assume = []
    for (port, frame), var in sorted(enc.input_vars.items()):
        bit = (stimulus[frame].get(port, 0) >> pattern) & 1
        assume.append(var if bit else -var)
    return assume


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
@pytest.mark.parametrize("mapped", [False, True])
def test_cnf_agrees_with_compiled_kernel(seed, mapped):
    netlist = random_sequential_netlist(
        f"prop{seed}", n_inputs=6, n_outputs=5, n_ffs=4, n_gates=40,
        seed=seed,
    )
    if mapped:
        netlist = map_to_luts(netlist)
    stimulus = random_stimulus(netlist, FRAMES, N_PATTERNS, seed=seed)
    outputs = replay_outputs(netlist, stimulus, N_PATTERNS)

    gb = GateBuilder(CNF())
    enc = CircuitEncoder(netlist, gb)
    lits = {
        (name, t): enc.output_lit(name, t)
        for name in enc.output_names()
        for t in range(FRAMES)
    }
    solver = Solver(gb.cnf, seed=seed)
    for pattern in range(N_PATTERNS):
        assert solver.solve(_assume_inputs(enc, stimulus, pattern))
        for (name, t), lit in lits.items():
            want = (outputs[t][name] >> pattern) & 1
            assert int(solver.lit_true(lit)) == want, (
                seed, mapped, pattern, name, t,
            )


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_combinational_cnf_agrees_after_mapping(seed):
    netlist = map_to_luts(
        random_combinational_netlist(
            f"comb{seed}", n_inputs=8, n_outputs=4, n_gates=30, seed=seed
        )
    )
    stimulus = random_stimulus(netlist, 1, N_PATTERNS, seed=seed + 10)
    outputs = replay_outputs(netlist, stimulus, N_PATTERNS)
    gb = GateBuilder(CNF())
    enc = CircuitEncoder(netlist, gb)
    lits = {name: enc.output_lit(name, 0) for name in enc.output_names()}
    solver = Solver(gb.cnf, seed=seed)
    for pattern in range(N_PATTERNS):
        assert solver.solve(_assume_inputs(enc, stimulus, pattern))
        for name, lit in lits.items():
            want = (outputs[0][name] >> pattern) & 1
            assert int(solver.lit_true(lit)) == want


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_injected_error_miter_is_sat_with_live_counterexample(seed):
    golden = map_to_luts(
        random_combinational_netlist(
            f"bug{seed}", n_inputs=6, n_outputs=6, n_gates=35, seed=seed
        )
    )
    bad = golden.copy("bad")
    # output_invert corrupts an entire LUT, so every injection site that
    # feeds an output is excitable — no dead-logic flakiness
    record = inject_error(bad, "output_invert", seed=seed)
    proof = prove_equivalence(bad, golden, frames=2, seed=seed)
    if proof.proved:
        # the corrupted LUT drives no primary output: simulation must
        # agree the netlists are indistinguishable
        stim = random_stimulus(golden, 4, 32, seed=seed)
        sims = [replay_outputs(nl, stim, 32) for nl in (bad, golden)]
        assert sims[0] == sims[1], record
        return
    mismatches = counterexample_mismatches(bad, golden, proof.counterexample)
    assert mismatches, (seed, record)
    assert proof.cex_output in {m.output for m in mismatches}

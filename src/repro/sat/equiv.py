"""Miter construction and bounded equivalence proof (formal verify).

A run that passes ``n_cycles * 4`` of random patterns is *consistent
with* being fixed; :func:`prove_equivalence` upgrades that to a proof
over every input sequence of a bounded length.  Implementation and
golden netlist are unrolled for ``frames`` clock cycles from their
reset states through one shared :class:`~repro.sat.cnf.GateBuilder`
(shared primary-input variables, shared structural hash), each shared
output gets a per-frame difference bit, and each output's disjunction
of difference bits is checked one at a time under an assumption — all
on a single incremental :class:`~repro.sat.solver.Solver` so learned
clauses carry across output cones.

Because the builder hashes structurally, a correctly corrected netlist
collapses onto its golden twin and most (usually all) outputs are
*structurally* proved — the difference literal folds to constant false
and the solver is never consulted.  A genuinely wrong netlist leaves a
live cone; the SAT model is decoded into a concrete per-cycle stimulus
(one pattern), which :func:`counterexample_mismatches` replays through
the compiled simulation kernel so every proof failure arrives with an
executable regression test.

The interface contract mirrors detection
(:func:`repro.debug.detect.detect_on_layout`): only outputs present on
*both* netlists are compared (instrumentation flags are excluded) and
implementation-only inputs — control points — are tied to 0, their
disabled state.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.debug.detect import GoldenTrace, Mismatch, compare_runs
from repro.netlist.core import Netlist, port_name
from repro.netlist.simulate import replay_outputs
from repro.resilience.budget import check_deadline
from repro.sat.cnf import CNF, GateBuilder, SatError
from repro.sat.encode import CircuitEncoder
from repro.sat.solver import Solver


@dataclass
class ProofResult:
    """Outcome of one bounded equivalence check."""

    #: every shared output proved equivalent over the bound
    proved: bool
    #: unrolling depth (clock cycles from reset)
    frames: int
    #: per-output verdict: "proved_structural" (difference folded to
    #: constant false), "proved" (UNSAT), "counterexample", "skipped"
    #: (not checked after the first counterexample)
    outputs: dict[str, str] = field(default_factory=dict)
    #: per-cycle primary-input words (one pattern) exciting the first
    #: difference, or None when proved
    counterexample: list[dict[str, int]] | None = None
    cex_output: str | None = None
    n_vars: int = 0
    n_clauses: int = 0
    build_seconds: float = 0.0
    solve_seconds: float = 0.0
    solver_stats: dict = field(default_factory=dict)

    @property
    def n_structural(self) -> int:
        return sum(
            1 for v in self.outputs.values() if v == "proved_structural"
        )

    def to_dict(self) -> dict:
        return {
            "proved": self.proved,
            "frames": self.frames,
            "outputs": dict(self.outputs),
            "counterexample": self.counterexample,
            "cex_output": self.cex_output,
            "n_structural": self.n_structural,
            "n_vars": self.n_vars,
            "n_clauses": self.n_clauses,
            "build_seconds": round(self.build_seconds, 6),
            "solve_seconds": round(self.solve_seconds, 6),
            "solver_stats": dict(self.solver_stats),
        }


def shared_outputs(impl: Netlist, golden: Netlist) -> list[str]:
    """Output ports present on both sides — the functional interface."""
    impl_ports = {port_name(po) for po in impl.primary_outputs()}
    gold_ports = {port_name(po) for po in golden.primary_outputs()}
    return sorted(impl_ports & gold_ports)


def prove_equivalence(
    impl: Netlist,
    golden: Netlist,
    frames: int = 4,
    outputs: list[str] | None = None,
    seed: int = 0,
) -> ProofResult:
    """Bounded equivalence of ``impl`` against ``golden`` from reset.

    Checks each shared output cone over ``frames`` cycles; stops at the
    first output with a counterexample.  Deterministic for a given
    seed.
    """
    if frames < 1:
        raise SatError("need at least one frame")
    t0 = time.perf_counter()
    gb = GateBuilder(CNF())
    golden_ports = {port_name(pi) for pi in golden.primary_inputs()}
    input_vars: dict[tuple[str, int], int] = {}

    def shared_input(port: str, frame: int) -> int:
        key = (port, frame)
        var = input_vars.get(key)
        if var is None:
            var = gb.cnf.new_var()
            input_vars[key] = var
        return var

    def impl_input(port: str, frame: int) -> int:
        if port in golden_ports:
            return shared_input(port, frame)
        return gb.false  # implementation-only control inputs held at 0

    enc_gold = CircuitEncoder(golden, gb, inputs=shared_input)
    enc_impl = CircuitEncoder(impl, gb, inputs=impl_input)
    checked = outputs if outputs is not None else shared_outputs(impl, golden)

    solver = Solver(gb.cnf, seed=seed)
    result = ProofResult(proved=True, frames=frames)
    solve = 0.0
    for name in checked:
        check_deadline("prove.output")
        diffs = []
        for t in range(frames):
            diff = gb.lit_xor(
                [enc_impl.output_lit(name, t), enc_gold.output_lit(name, t)]
            )
            if diff == gb.false:
                continue
            diffs.append(diff)
        miter = gb.lit_or(diffs) if diffs else gb.false
        if miter == gb.false:
            result.outputs[name] = "proved_structural"
            continue
        s0 = time.perf_counter()
        sat = solver.solve([miter])
        solve += time.perf_counter() - s0
        if not sat:
            result.outputs[name] = "proved"
            continue
        result.outputs[name] = "counterexample"
        result.proved = False
        result.cex_output = name
        result.counterexample = _decode_stimulus(
            solver, input_vars, sorted(golden_ports), frames
        )
        for other in checked:
            if other not in result.outputs:
                result.outputs[other] = "skipped"
        break
    result.build_seconds = time.perf_counter() - t0 - solve
    result.solve_seconds = solve
    result.n_vars = gb.cnf.n_vars
    result.n_clauses = len(gb.cnf.clauses)
    result.solver_stats = solver.stats.snapshot()
    return result


def _decode_stimulus(
    solver: Solver,
    input_vars: dict[tuple[str, int], int],
    ports: list[str],
    frames: int,
) -> list[dict[str, int]]:
    """Model -> per-cycle input words (unconstrained inputs read 0)."""
    stimulus: list[dict[str, int]] = []
    for t in range(frames):
        cycle: dict[str, int] = {}
        for port in ports:
            var = input_vars.get((port, t))
            cycle[port] = solver.value(var) if var is not None else 0
        stimulus.append(cycle)
    return stimulus


def counterexample_mismatches(
    impl: Netlist,
    golden: Netlist,
    stimulus: list[dict[str, int]],
    engine: str = "compiled",
) -> list[Mismatch]:
    """Replay a counterexample through the simulation kernel.

    Runs both netlists from reset on the single-pattern stimulus and
    returns the observed output mismatches — the executable evidence
    (and regression test) behind a failed proof.  Implementation-only
    inputs default to 0, matching the proof's encoding.
    """
    return compare_runs(
        replay_outputs(impl, stimulus, engine=engine),
        GoldenTrace(golden, stimulus, 1, engine).outputs,
    )

"""CEGIS truth-table synthesis: solve for LUTs that repair the DUT.

Counter-Example-Guided Inductive Synthesis over the smallest useful
hypothesis space — the ``2**k`` truth-table bits of the suspect LUTs.
Each suspect's table is replaced by free variables shared across every
encoding; each counterexample contributes one unrolled copy of the DUT
with the counterexample's stimulus applied as constants and the golden
output values asserted at every cycle of its window.  Because the
stimulus is constant, the gate builder folds each copy down to the
handful of literals that actually depend on the unknown tables — the
CNF stays tiny no matter how large the design is.

The loop is the classic alternation, run on one incremental solver:

1. **solve** — find tables consistent with every counterexample seen;
2. **simulate-check** — retable a scratch copy and run the *full*
   multi-pattern stimulus through the simulation kernel against the
   golden trace's outputs (:class:`repro.debug.detect.GoldenTrace`,
   simulated once per stimulus and shared by every suspect set);
3. **refine** — a surviving mismatch becomes a new counterexample
   constraint, plus a blocking clause on the failed joint assignment so
   progress is guaranteed even before the new constraint bites.

:func:`synthesize_tables` repairs one LUT or several *jointly* — one
shared solver, per-candidate table variables, one blocking clause over
the concatenated assignment — which is what interacting multi-error
rounds need: neither table alone clears the mismatches, but the pair
does.  ``ignore_outputs`` scopes the specification to the outputs a
diagnosis round owns, so a repair is not rejected for failing to fix a
*different* fault's outputs.

UNSAT means no table assignment at these locations explains the
evidence — the caller moves to the next suspect set (or falls back to
back-annotation).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.debug.detect import GoldenTrace, Mismatch, compare_runs
from repro.netlist.cells import CellKind
from repro.netlist.core import Netlist, port_name
from repro.obs.metrics import METRICS
from repro.obs.trace import maybe_span
from repro.resilience.budget import check_deadline
from repro.rng import derive_seed
from repro.sat.cnf import CNF, GateBuilder, SatError
from repro.sat.encode import CircuitEncoder
from repro.sat.solver import Solver


@dataclass
class TableSynthesis:
    """Outcome of one suspect set's CEGIS run."""

    instance: str
    #: the verified replacement table, or None when no table works
    table: int | None
    #: solve→check→refine round trips taken
    iterations: int
    #: (cycle, output, pattern) counterexamples the loop accumulated
    counterexamples: list[tuple[int, str, int]] = field(default_factory=list)
    solver_stats: dict = field(default_factory=dict)
    #: every retabled instance, in candidate order (joint runs)
    instances: list[str] = field(default_factory=list)
    #: verified tables aligned with ``instances`` (empty on failure)
    tables: list[int] = field(default_factory=list)

    @property
    def succeeded(self) -> bool:
        return self.table is not None


def _first_failure(mismatches: list[Mismatch]) -> tuple[int, str, int]:
    first = min(mismatches, key=lambda m: (m.cycle, m.output))
    pattern = (first.diff_mask & -first.diff_mask).bit_length() - 1
    return first.cycle, first.output, pattern


def synthesize_tables(
    netlist: Netlist,
    trace: GoldenTrace,
    candidates: list[str],
    mismatches: list[Mismatch],
    max_iterations: int = 12,
    seed: int = 0,
    ignore_outputs=None,
) -> TableSynthesis:
    """Jointly CEGIS replacement truth tables for every ``candidate``.

    ``netlist`` is the faulty DUT (left unmodified — checks run on a
    scratch copy); ``trace`` supplies the intended behavior on its
    stimulus; ``mismatches`` seed the first counterexample.  All
    candidate LUTs get their own table variables on one shared solver;
    a satisfying assignment retables all of them at once and must
    survive the full-stimulus check together.  ``ignore_outputs`` names
    primary outputs exempted from the specification (outputs a
    *different*, not-yet-fixed error owns in a multi-fault session) —
    they are neither asserted in counterexample encodings nor counted
    as check failures.  Deterministic for a given seed.
    """
    candidates = list(candidates)
    if not candidates:
        raise SatError("CEGIS needs at least one candidate LUT")
    insts = []
    for name in candidates:
        inst = netlist.instance(name)
        if inst.kind is not CellKind.LUT or not inst.inputs:
            raise SatError(f"{name} is not a synthesizable LUT")
        insts.append(inst)
    if not mismatches:
        raise SatError("CEGIS needs at least one observed mismatch")
    ignore = set(ignore_outputs or ())
    mismatches = [m for m in mismatches if m.output not in ignore]
    if not mismatches:
        raise SatError("every mismatch lies on an ignored output")

    gb = GateBuilder(CNF())
    table_map: dict[str, list[int]] = {}
    all_vars: list[int] = []
    for inst in insts:
        tvars = [gb.cnf.new_var() for _ in range(1 << len(inst.inputs))]
        table_map[inst.name] = tvars
        all_vars.extend(tvars)
    solver = Solver(
        gb.cnf,
        seed=derive_seed(seed, "sat.cegis", "+".join(candidates)),
    )
    result = TableSynthesis(
        instance=candidates[0], table=None, iterations=0,
        instances=list(candidates),
    )

    def add_counterexample(cycle: int, pattern: int) -> None:
        _encode_counterexample(
            gb, netlist, trace, table_map, pattern, cycle, ignore,
        )

    first_cycle, first_output, first_pattern = _first_failure(mismatches)
    result.counterexamples.append((first_cycle, first_output, first_pattern))
    add_counterexample(first_cycle, first_pattern)

    scratch = netlist.copy(f"{netlist.name}.cegis")
    scratch_insts = [scratch.instance(name) for name in candidates]
    while result.iterations < max_iterations:
        check_deadline("cegis.iteration")
        result.iterations += 1
        METRICS.inc("repro_cegis_iterations_total")
        with maybe_span("cegis_iter", category="sat",
                        iteration=result.iterations,
                        n_counterexamples=len(result.counterexamples)):
            if not solver.solve():
                break  # no table assignment consistent with the evidence
            tables = []
            for inst in insts:
                table = 0
                for m, var in enumerate(table_map[inst.name]):
                    if solver.lit_true(var):
                        table |= 1 << m
                tables.append(table)
            for scratch_inst, table in zip(scratch_insts, tables):
                scratch.set_params(scratch_inst, {"table": table})
            remaining = _check_against_golden(scratch, trace, ignore)
            if not remaining:
                result.table = tables[0]
                result.tables = tables
                break
            cycle, output, pattern = _first_failure(remaining)
            result.counterexamples.append((cycle, output, pattern))
            add_counterexample(cycle, pattern)
            # block the exact failed joint assignment: progress even
            # when the new counterexample window happens not to
            # constrain it
            blocked = []
            for inst, table in zip(insts, tables):
                blocked.extend(
                    -var if (table >> m) & 1 else var
                    for m, var in enumerate(table_map[inst.name])
                )
            gb.cnf.add_clause(blocked)
    result.solver_stats = solver.stats.snapshot()
    return result


# ----------------------------------------------------------------------
# internals
# ----------------------------------------------------------------------

def _check_against_golden(
    scratch: Netlist, trace: GoldenTrace, ignore: set | None = None,
) -> list[Mismatch]:
    """Full-stimulus, all-patterns comparison of the retabled DUT."""
    from repro.netlist.simulate import replay_outputs

    remaining = compare_runs(
        replay_outputs(scratch, trace.stimulus, trace.n_patterns,
                       engine=trace.engine),
        trace.outputs,
    )
    if ignore:
        remaining = [m for m in remaining if m.output not in ignore]
    return remaining


def _encode_counterexample(
    gb: GateBuilder,
    netlist: Netlist,
    trace: GoldenTrace,
    table_map: dict[str, list[int]],
    pattern: int,
    cycle: int,
    ignore: set,
) -> None:
    """One unrolled DUT copy under the counterexample's constants.

    Every suspect's output becomes its symbolic table lookup; every
    golden functional output value over frames ``0..cycle`` is asserted
    (except exempted outputs).
    """

    def const_input(port: str, frame: int) -> int:
        word = trace.stimulus[frame].get(port, 0)
        return gb.const((word >> pattern) & 1)

    def relax(inst, frame, in_lits, lit):
        tvars = table_map.get(inst.name)
        if tvars is None:
            return lit
        return _symbolic_lut(gb, tvars, in_lits)

    enc = CircuitEncoder(netlist, gb, inputs=const_input, relax=relax)
    shared = {
        port_name(po) for po in trace.golden.primary_outputs()
    } & set(enc.output_names())
    shared -= ignore
    for t in range(cycle + 1):
        for port in sorted(shared):
            bit = (trace.outputs[t][port] >> pattern) & 1
            lit = enc.output_lit(port, t)
            gb.clause([lit] if bit else [-lit])


def _symbolic_lut(gb: GateBuilder, table_vars: list[int], in_lits) -> int:
    """``out = table[inputs]`` with the table bits as variables.

    With constant inputs (the CEGIS case) this folds to the selected
    table variable itself; symbolic inputs get the full definition.
    """
    in_lits = list(in_lits)
    minterm = 0
    symbolic = False
    for j, lit in enumerate(in_lits):
        value = gb.const_value(lit)
        if value is None:
            symbolic = True
            break
        minterm |= value << j
    if not symbolic:
        return table_vars[minterm]
    out = gb.cnf.new_var()
    for m, tvar in enumerate(table_vars):
        match = gb.lit_and(
            [l if (m >> j) & 1 else -l for j, l in enumerate(in_lits)]
        )
        gb.clause([-match, -tvar, out])
        gb.clause([-match, tvar, -out])
    return out

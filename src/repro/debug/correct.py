"""Error correction (paper steps 11-13).

Two routes produce the fix :class:`ChangeSet` whose commit the paper's
Figure 5 measures:

* **back-annotation** (:func:`apply_correction`) — the designer fixes
  the bug at the HDL level and the inverse of the injected error is
  replayed onto the mapped netlist;
* **CEGIS synthesis** (:func:`synthesize_lut_fix`) — no oracle: the
  localization candidates are tried in order, and for each suspect LUT
  the CDCL solver searches for a replacement truth table consistent
  with every counterexample observed so far, iterating
  solve → simulate-check → add blocking constraint until a table
  verifies against the golden model on the full stimulus
  (:mod:`repro.sat.cegis`).  With ``max_luts >= 2`` the search widens
  to candidate *pairs* retabled jointly on one shared solver — the
  interacting-fault case where neither single table clears the
  evidence.  Errors that are not truth-table-shaped at any candidate
  (a rewired input pin, say) come back unfixable and the caller falls
  back to back-annotation.

Multi-error sessions stack corrections: each round's fix ChangeSet is
independent, and stacked :func:`apply_correction` calls undo a stack of
injections when replayed in reverse order.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from repro.debug.detect import GoldenTrace, Mismatch
from repro.debug.errors import ErrorRecord
from repro.errors import DebugFlowError
from repro.netlist.cells import CellKind
from repro.netlist.core import Netlist
from repro.tiling.eco import ChangeRecorder, ChangeSet


def apply_correction(
    netlist: Netlist, record: ErrorRecord
) -> ChangeSet:
    """Undo the injected error; returns the netlist delta."""
    inst = netlist.instance(record.instance)
    with ChangeRecorder(netlist, f"fix {record.kind} @ {record.instance}") as rec:
        if record.kind in ("table_bit", "wrong_function", "output_invert"):
            netlist.set_params(inst, {"table": record.undo["table"]})
        elif record.kind == "input_swap":
            a, b = record.undo["pins"]
            net_a, net_b = inst.inputs[a], inst.inputs[b]
            netlist.set_input(inst, a, net_b)
            netlist.set_input(inst, b, net_a)
        elif record.kind == "wrong_source":
            pin = record.undo["pin"]
            netlist.set_input(inst, pin, netlist.net(record.undo["old_net"]))
        else:
            raise DebugFlowError(f"no corrector for error kind {record.kind!r}")
    changes = rec.changes
    assert changes is not None
    if record.kind in ("table_bit", "wrong_function", "output_invert"):
        # a pure params change is connectivity-invisible to the recorder
        # only if the table happened to match; make the touch explicit
        changes.changed_instances.add(record.instance)
    return changes


@dataclass
class FixSynthesis:
    """A verified CEGIS repair, ready to commit."""

    #: netlist delta applying the synthesized table(s)
    changes: ChangeSet
    #: the (first) LUT that was retabled
    instance: str
    #: the (first) replacement truth table
    table: int
    #: CEGIS round trips spent on the successful suspect set
    iterations: int
    #: suspects attempted, in order (the last entry succeeded)
    tried: list[str] = field(default_factory=list)
    #: counterexamples accumulated: (cycle, output, pattern)
    counterexamples: list = field(default_factory=list)
    #: every retabled LUT, in order (len > 1 for joint repairs)
    instances: list[str] = field(default_factory=list)
    #: replacement tables aligned with ``instances``
    tables: list[int] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.instances:
            self.instances = [self.instance]
        if not self.tables:
            self.tables = [self.table]

    def to_dict(self) -> dict:
        return {
            "instance": self.instance,
            "table": self.table,
            "instances": list(self.instances),
            "tables": list(self.tables),
            "iterations": self.iterations,
            "tried": list(self.tried),
            "counterexamples": [list(c) for c in self.counterexamples],
        }


def synthesize_lut_fix(
    netlist: Netlist,
    trace: GoldenTrace,
    candidates,
    mismatches: list[Mismatch],
    max_iterations: int = 12,
    seed: int = 0,
    max_luts: int = 1,
    pair_hints=None,
    ignore_outputs=None,
    max_pairs: int = 8,
) -> FixSynthesis | None:
    """Search the candidate LUTs for a truth-table repair.

    Single candidates are tried in sorted order; the first whose
    synthesized table clears *every* (non-exempted) mismatch against
    ``trace`` (the golden model's response to the full stimulus) wins
    and is applied to ``netlist``.  With ``max_luts >= 2`` the search
    continues over candidate pairs — ``pair_hints`` (e.g. the SAT
    diagnoser's feasible pairs) are tried first, then sorted
    combinations, up to ``max_pairs`` joint attempts.
    ``ignore_outputs`` exempts outputs owned by other not-yet-fixed
    errors from the specification.  Returns ``None`` when no candidate
    set admits a table fix (the error is structural, or lies outside
    the candidates) — the pipeline then falls back to back-annotation.
    """
    from repro.sat.cegis import synthesize_tables

    if not mismatches:
        raise DebugFlowError("cannot synthesize a fix without a mismatch")

    def is_lut(name: str) -> bool:
        if not netlist.has_instance(name):
            return False
        inst = netlist.instance(name)
        return inst.kind is CellKind.LUT and bool(inst.inputs)

    tried: list[str] = []
    attempts: list[tuple[str, ...]] = [
        (name,) for name in sorted(candidates) if is_lut(name)
    ]
    if max_luts >= 2:
        pairs: list[tuple[str, ...]] = []
        seen: set[tuple[str, ...]] = set()
        for a, b in list(pair_hints or []):
            key = tuple(sorted((a, b)))
            if key in seen or not (is_lut(a) and is_lut(b)):
                continue
            seen.add(key)
            pairs.append(key)
        for key in itertools.combinations(
            sorted(name for name in candidates if is_lut(name)), 2
        ):
            if key not in seen:
                seen.add(key)
                pairs.append(key)
        attempts.extend(pairs[:max_pairs])

    for group in attempts:
        tried.append("+".join(group))
        outcome = synthesize_tables(
            netlist, trace, list(group), mismatches,
            max_iterations=max_iterations, seed=seed,
            ignore_outputs=ignore_outputs,
        )
        if not outcome.succeeded:
            continue
        label = "+".join(group)
        with ChangeRecorder(netlist, f"cegis retable @ {label}") as rec:
            for name, table in zip(group, outcome.tables):
                netlist.set_params(
                    netlist.instance(name), {"table": table}
                )
        changes = rec.changes
        assert changes is not None
        # params-only edits are connectivity-invisible to the recorder
        changes.changed_instances.update(group)
        return FixSynthesis(
            changes=changes,
            instance=group[0],
            table=outcome.tables[0],
            iterations=outcome.iterations,
            tried=tried,
            counterexamples=list(outcome.counterexamples),
            instances=list(group),
            tables=list(outcome.tables),
        )
    return None

"""Demand-driven Tseitin encoding of a netlist's time-unrolling.

A :class:`CircuitEncoder` maps ``(net, frame)`` pairs onto CNF literals
lazily: asking for an output at frame ``t`` pulls in exactly the
transitive fanin cone of that output across frames ``0..t`` and nothing
else.  That laziness is load-bearing three times over:

* per-output-cone miters (the formal verify mode) never pay for the
  outputs they are not checking;
* a stimulus applied as constants lets the :class:`GateBuilder` fold
  whole cones away, so the CEGIS encodings collapse to the few gates
  that actually depend on the unknown truth table;
* the diagnose encodings only materialize the frames up to the first
  observed failure.

Frame semantics match :func:`repro.netlist.simulate.replay_outputs`
exactly: combinational logic is evaluated per frame, a DFF's Q at frame
``t`` is its D literal at frame ``t-1``, and frame 0 starts from the
``init`` parameter — the same reset state
:func:`repro.netlist.simulate.initial_state` produces.

Inputs come from a pluggable provider (shared variables for miters,
constants for counterexample replay); a ``relax`` hook lets callers
substitute an instance's output literal (MUX-relaxed suspects in
:mod:`repro.sat.diagnose`, free truth tables in :mod:`repro.sat.cegis`).
"""

from __future__ import annotations

from typing import Callable

from repro.netlist.cells import CellKind, lut_table_for_gate
from repro.netlist.core import Instance, Netlist, port_name
from repro.sat.cnf import GateBuilder, SatError

#: ``relax(instance, frame, input_lits, lit) -> lit`` — observe or
#: replace a combinational instance's freshly computed output literal.
RelaxFn = Callable[[Instance, int, list[int], int], int]

#: ``inputs(port, frame) -> lit`` — literal feeding a primary input.
InputFn = Callable[[str, int], int]


class CircuitEncoder:
    """One netlist's unrolled encoding over a shared gate builder."""

    def __init__(
        self,
        netlist: Netlist,
        gb: GateBuilder,
        inputs: InputFn | None = None,
        relax: RelaxFn | None = None,
    ) -> None:
        self.netlist = netlist
        self.gb = gb
        self.relax = relax
        self._provider = inputs
        #: (port, frame) -> variable, for providers left to default
        self.input_vars: dict[tuple[str, int], int] = {}
        self._memo: dict[tuple[str, int], int] = {}
        self._outputs = {
            port_name(po): po.inputs[0].name
            for po in netlist.primary_outputs()
        }

    # -- ports ---------------------------------------------------------

    def output_names(self) -> list[str]:
        return sorted(self._outputs)

    def input_names(self) -> list[str]:
        return sorted(port_name(pi) for pi in self.netlist.primary_inputs())

    def output_lit(self, port: str, frame: int) -> int:
        try:
            net = self._outputs[port]
        except KeyError:
            raise SatError(
                f"{self.netlist.name} has no primary output {port!r}"
            ) from None
        return self.net_lit(net, frame)

    def input_lit(self, port: str, frame: int) -> int:
        if self._provider is not None:
            return self._provider(port, frame)
        key = (port, frame)
        var = self.input_vars.get(key)
        if var is None:
            var = self.gb.cnf.new_var()
            self.input_vars[key] = var
        return var

    # -- encoding ------------------------------------------------------

    def net_lit(self, net_name: str, frame: int) -> int:
        """The literal carrying ``net_name``'s value at ``frame``.

        Encodes the needed fanin cone on demand (iteratively — cone
        depth regularly exceeds the recursion limit).
        """
        if frame < 0:
            raise SatError(f"frame {frame} out of range")
        memo = self._memo
        key = (net_name, frame)
        hit = memo.get(key)
        if hit is not None:
            return hit
        netlist = self.netlist
        stack = [key]
        while stack:
            name, t = stack[-1]
            if (name, t) in memo:
                stack.pop()
                continue
            driver = netlist.net(name).driver
            if driver is None:
                # undriven nets read as 0, matching the emulator's
                # default for missing stimulus
                memo[(name, t)] = self.gb.false
                stack.pop()
                continue
            kind = driver.kind
            if kind is CellKind.INPUT:
                memo[(name, t)] = self.input_lit(port_name(driver), t)
                stack.pop()
                continue
            if kind is CellKind.DFF:
                if t == 0:
                    memo[(name, t)] = self.gb.const(
                        driver.params.get("init", 0)
                    )
                    stack.pop()
                    continue
                dep = (driver.inputs[0].name, t - 1)
                if dep not in memo:
                    stack.append(dep)
                    continue
                memo[(name, t)] = memo[dep]
                stack.pop()
                continue
            deps = [(net.name, t) for net in driver.inputs]
            missing = [d for d in deps if d not in memo]
            if missing:
                stack.extend(missing)
                continue
            in_lits = [memo[d] for d in deps]
            lit = _encode_cell(self.gb, driver, in_lits)
            if self.relax is not None:
                lit = self.relax(driver, t, in_lits, lit)
            memo[(name, t)] = lit
            stack.pop()
        return memo[key]


def _encode_cell(gb: GateBuilder, inst: Instance, lits: list[int]) -> int:
    kind = inst.kind
    if kind is CellKind.LUT:
        return gb.lit_lut(inst.params.get("table", 0), lits)
    if kind is CellKind.CONST0:
        return gb.false
    if kind is CellKind.CONST1:
        return gb.true
    if kind is CellKind.BUF:
        return lits[0]
    if kind is CellKind.NOT:
        return -lits[0]
    if kind is CellKind.AND:
        return gb.lit_and(lits)
    if kind is CellKind.OR:
        return gb.lit_or(lits)
    if kind is CellKind.NAND:
        return -gb.lit_and(lits)
    if kind is CellKind.NOR:
        return -gb.lit_or(lits)
    if kind is CellKind.XOR:
        return gb.lit_xor(lits)
    if kind is CellKind.XNOR:
        return -gb.lit_xor(lits)
    if kind is CellKind.MUX2:
        sel, d0, d1 = lits
        return gb.lit_mux(sel, d0, d1)
    if kind is CellKind.OUTPUT:
        return lits[0]
    # future cell kinds fall back to their truth table when small
    if len(lits) <= 4:
        return gb.lit_lut(lut_table_for_gate(kind, len(lits)), lits)
    raise SatError(f"cannot encode cell kind {kind}")

"""Compiled levelized simulation kernel.

The interpreted engine (:class:`~repro.netlist.simulate.CombinationalSimulator`)
walks ``Instance`` objects and pays, per gate and per cycle, a net-name
dict lookup for every input pin plus the :func:`~repro.netlist.cells.eval_gate`
kind-dispatch chain (and, for LUTs, a 2^k-minterm interpretation loop).
This module lowers the netlist **once** into a flat *instruction tape*
and replays that tape, which is what makes the detect→localize loop
cheap enough to run per probe round on the thousand-CLB designs.

Instruction-tape layout
=======================

Lowering assigns every net a dense integer *slot* in a flat value array
``v`` (bit-parallel pattern words, exactly the representation of the
interpreted engine).  Each combinational instance becomes one tape entry
across four parallel arrays, indexed by tape position:

* ``ops[i]``    — integer opcode (one per :class:`CellKind`);
* ``srcs[i]``   — tuple of operand slot indices (input pin order);
* ``tables[i]`` — LUT truth table int, or ``None`` for fixed gates;
* ``dests[i]``  — output slot index.

Primary inputs and DFF Q values are *leaves*: their slots are filled
from the stimulus/state dicts before the tape runs, so the tape itself
is pure straight-line combinational evaluation in topological order.
OUTPUT markers and DFF D pins are metadata (slot references), not
instructions.

Each ``(opcode, arity, table)`` signature is code-generated once into a
tiny evaluator function (e.g. a 4-input XOR LUT becomes
``lambda-like f(v, s, m): x0^x1^x2^x3`` with masked complements for
SOP tables) and cached process-wide, so tape replay is one function
call per gate — no per-gate kind dispatch, no dict lookups, no minterm
loops.  Results are bit-exact against the interpreted engine.

Incremental recompile
=====================

ECO edits arrive as :class:`~repro.tiling.eco.ChangeSet` deltas.
:meth:`CompiledKernel.apply_changeset` re-lowers **only the combinational
fanout region** of the touched instances: because that region is
fanout-closed, its old tape entries can be dropped and the freshly
lowered region appended after the surviving prefix while preserving
topological validity.  Mutations made without a changeset are caught by
the :class:`~repro.netlist.core.Netlist` revision counter and trigger a
full recompile, so the kernel can never silently run stale.

Cone slicing
============

:meth:`CompiledKernel.cone_runner` restricts sequential replay to the
fanin cone of a set of observed output ports.  The returned
:class:`ConeRunner` holds the cone's tape entries (in tape order, so
still topologically valid) and its own FF state, which lets a
localization probe verdict replay only the logic that can reach the
probe — with the same verdict as full replay.
"""

from __future__ import annotations

from weakref import WeakKeyDictionary

from repro.errors import NetlistError
from repro.netlist.cells import CellKind
from repro.netlist.core import Instance, Netlist, port_name
from repro.obs.metrics import METRICS

# ----------------------------------------------------------------------
# opcodes
# ----------------------------------------------------------------------

OP_CONST0 = 0
OP_CONST1 = 1
OP_BUF = 2
OP_NOT = 3
OP_AND = 4
OP_OR = 5
OP_NAND = 6
OP_NOR = 7
OP_XOR = 8
OP_XNOR = 9
OP_MUX2 = 10
OP_LUT = 11

_KIND_TO_OP = {
    CellKind.CONST0: OP_CONST0,
    CellKind.CONST1: OP_CONST1,
    CellKind.BUF: OP_BUF,
    CellKind.NOT: OP_NOT,
    CellKind.AND: OP_AND,
    CellKind.OR: OP_OR,
    CellKind.NAND: OP_NAND,
    CellKind.NOR: OP_NOR,
    CellKind.XOR: OP_XOR,
    CellKind.XNOR: OP_XNOR,
    CellKind.MUX2: OP_MUX2,
    CellKind.LUT: OP_LUT,
}

#: tape instructions exist only for these kinds; INPUT/DFF are leaves,
#: OUTPUT markers are metadata
_LEAF_KINDS = (CellKind.INPUT, CellKind.DFF, CellKind.OUTPUT)


# ----------------------------------------------------------------------
# micro-kernel code generation (cached per signature)
# ----------------------------------------------------------------------

_FN_CACHE: dict[tuple[int, int, int | None], object] = {}


def _lut_expr(k: int, table: int) -> str:
    """Masked sum-of-products expression for a k-input LUT table.

    Uses ``x{j}`` / ``nx{j}`` names bound in the generated preamble;
    picks the sparser of the ON-set and complemented OFF-set forms.
    """
    size = 1 << k
    full = (1 << size) - 1
    table &= full
    if table == 0:
        return "0"
    if table == full:
        return "m"
    ones = [mt for mt in range(size) if (table >> mt) & 1]
    invert = len(ones) > size // 2
    if invert:
        ones = [mt for mt in range(size) if not (table >> mt) & 1]
    terms = []
    for mt in ones:
        lits = [
            f"x{j}" if (mt >> j) & 1 else f"nx{j}" for j in range(k)
        ]
        terms.append("(" + " & ".join(lits) + ")")
    expr = " | ".join(terms)
    if invert:
        expr = f"~({expr}) & m"
    return expr


def _gen_source(op: int, k: int, table: int | None) -> str:
    xs = [f"x{i}" for i in range(k)]
    loads = [f"    x{i} = v[s[{i}]]" for i in range(k)]
    if op == OP_CONST0:
        body = "0"
    elif op == OP_CONST1:
        body = "m"
    elif op == OP_BUF:
        body = "x0"
    elif op == OP_NOT:
        body = "~x0 & m"
    elif op == OP_AND:
        body = " & ".join(xs)
    elif op == OP_OR:
        body = " | ".join(xs)
    elif op == OP_NAND:
        body = "~({}) & m".format(" & ".join(xs))
    elif op == OP_NOR:
        body = "~({}) & m".format(" | ".join(xs))
    elif op == OP_XOR:
        body = " ^ ".join(xs)
    elif op == OP_XNOR:
        body = "~({}) & m".format(" ^ ".join(xs))
    elif op == OP_MUX2:
        # ports (sel, d0, d1); identical form to eval_gate for exactness
        body = "(x1 & ~x0) | (x2 & x0)"
    elif op == OP_LUT:
        expr = _lut_expr(k, table or 0)
        if "nx" in expr:
            loads += [f"    nx{i} = ~x{i} & m" for i in range(k)]
        body = expr
    else:  # pragma: no cover - lowering rejects unknown kinds
        raise NetlistError(f"no micro-kernel for opcode {op}")
    lines = ["def _f(v, s, m):"] + loads + [f"    return {body}"]
    return "\n".join(lines)


def _fn_for(op: int, k: int, table: int | None):
    """Evaluator ``f(values, src_slots, mask)`` for one signature."""
    key = (op, k, table if op == OP_LUT else None)
    fn = _FN_CACHE.get(key)
    if fn is None:
        namespace: dict = {}
        source = _gen_source(op, k, table)
        exec(compile(source, f"<microkernel {key}>", "exec"), namespace)
        fn = namespace["_f"]
        _FN_CACHE[key] = fn
    return fn


# ----------------------------------------------------------------------
# the kernel
# ----------------------------------------------------------------------


class CompiledKernel:
    """Lowered, replayable form of one netlist.

    API-compatible with :class:`CombinationalSimulator` (``run``,
    ``next_state``, ``probe``) and bit-exact against it.  Use
    :func:`kernel_for` to share one kernel per netlist across the
    emulator, sequential simulator and localizer.
    """

    def __init__(self, netlist: Netlist) -> None:
        self.netlist = netlist
        #: diagnostics: full lowerings / incremental re-lowerings done
        self.compile_count = 0
        self.incremental_count = 0
        self._compile_full()

    # -- lowering ------------------------------------------------------

    def _compile_full(self) -> None:
        nl = self.netlist
        self._slot_of_net: dict[str, int] = {}
        self._ops: list[int] = []
        self._srcs: list[tuple[int, ...]] = []
        self._tables: list[int | None] = []
        self._dests: list[int] = []
        self._instr_names: list[str] = []

        order = nl.topo_order()
        for net in nl.nets():
            self._slot_of_net[net.name] = len(self._slot_of_net)
        for inst in order:
            if inst.kind in _LEAF_KINDS:
                continue
            self._append_instr(inst)
        self._rebuild_metadata()
        self._rebuild_tape()
        self._revision = nl.revision
        self.compile_count += 1
        METRICS.inc("repro_kernel_compiles_total", kind="full")

    def _slot(self, net_name: str) -> int:
        slot = self._slot_of_net.get(net_name)
        if slot is None:
            slot = len(self._slot_of_net)
            self._slot_of_net[net_name] = slot
        return slot

    def _lower(self, inst: Instance) -> tuple:
        op = _KIND_TO_OP.get(inst.kind)
        if op is None:
            raise NetlistError(
                f"cannot lower {inst.kind} instance {inst.name!r}"
            )
        srcs = tuple(self._slot(net.name) for net in inst.inputs)
        table = inst.params.get("table") if op == OP_LUT else None
        dest = self._slot(inst.output.name)
        return op, srcs, table, dest

    def _append_instr(self, inst: Instance) -> None:
        op, srcs, table, dest = self._lower(inst)
        self._ops.append(op)
        self._srcs.append(srcs)
        self._tables.append(table)
        self._dests.append(dest)
        self._instr_names.append(inst.name)

    def _rebuild_metadata(self) -> None:
        """Leaf/IO slot maps; O(inputs + FFs + outputs), always rebuilt."""
        nl = self.netlist
        self._inputs = [
            (port_name(pi), self._slot(pi.output.name))
            for pi in nl.primary_inputs()
        ]
        self._ffs = [
            (
                ff.name,
                self._slot(ff.output.name),
                ff.params.get("init", 0),
                self._slot(ff.inputs[0].name),
            )
            for ff in nl.flip_flops()
        ]
        self._outputs = [
            (port_name(po), self._slot(po.inputs[0].name))
            for po in nl.primary_outputs()
        ]
        # probe view mirrors the interpreted engine: the output net of
        # every non-OUTPUT instance
        self._probe_slots = [
            (inst.output.name, self._slot(inst.output.name))
            for inst in nl.instances()
            if inst.kind is not CellKind.OUTPUT
        ]
        self._n_slots = len(self._slot_of_net)

    def _rebuild_tape(self) -> None:
        self._tape = list(
            zip(
                (
                    _fn_for(op, len(srcs), table)
                    for op, srcs, table in zip(
                        self._ops, self._srcs, self._tables
                    )
                ),
                self._srcs,
                self._dests,
            )
        )

    # -- incremental recompile -----------------------------------------

    def ensure_current(self) -> None:
        """Full recompile if the netlist mutated behind our back."""
        if self.netlist.revision != self._revision:
            self._compile_full()

    def apply_changeset(self, changes) -> None:
        """Re-lower only the combinational fanout region of a ChangeSet.

        ``changes`` is a :class:`repro.tiling.eco.ChangeSet`.  The
        incremental path is taken only when ``changes.base_revision``
        matches the revision this kernel last synchronized to — i.e.
        the changeset provably covers every mutation since then.  A
        gap (untracked edits between syncs), an unknown provenance, or
        a delta that cannot be applied (e.g. a combinational loop
        introduced mid-edit) all fall back to a full recompile, so a
        partial changeset can never silently leave a stale tape.
        """
        nl = self.netlist
        if nl.revision == self._revision:
            return
        base = getattr(changes, "base_revision", None)
        if base is None or base != self._revision:
            self._compile_full()
            return
        try:
            self._apply_incremental(changes)
        except Exception:
            self._compile_full()

    def _apply_incremental(self, changes) -> None:
        nl = self.netlist
        touched = changes.changed_instances | changes.new_instances
        seeds = [nl.instance(n) for n in touched if nl.has_instance(n)]
        gone = set(changes.removed_instances) | {
            n for n in touched if not nl.has_instance(n)
        }
        # the comb fanout region; every tape entry reading a region
        # output is itself in the region, so the region can be re-lowered
        # and appended after the surviving (still topologically sorted)
        # prefix
        region = nl.fanout_cone(seeds, stop_at_ffs=True) if seeds else set()
        drop = region | gone
        keep = [
            i
            for i, name in enumerate(self._instr_names)
            if name not in drop
        ]
        self._ops = [self._ops[i] for i in keep]
        self._srcs = [self._srcs[i] for i in keep]
        self._tables = [self._tables[i] for i in keep]
        self._dests = [self._dests[i] for i in keep]
        self._instr_names = [self._instr_names[i] for i in keep]

        # slots for any nets created by the edit
        for net in nl.nets():
            if net.name not in self._slot_of_net:
                self._slot(net.name)

        for inst in self._region_topo(region):
            self._append_instr(inst)
        self._rebuild_metadata()
        self._rebuild_tape()
        self._revision = nl.revision
        self.incremental_count += 1
        METRICS.inc("repro_kernel_compiles_total", kind="incremental")

    def _region_topo(self, region: set[str]) -> list[Instance]:
        """Topological order of the region's combinational instances."""
        nl = self.netlist
        members = [
            nl.instance(n)
            for n in region
            if nl.has_instance(n)
            and nl.instance(n).kind not in _LEAF_KINDS
        ]
        member_names = {inst.name for inst in members}
        indegree: dict[str, int] = {}
        for inst in members:
            deps = 0
            for net in inst.inputs:
                drv = net.driver
                if drv is not None and drv.name in member_names:
                    deps += 1
            indegree[inst.name] = deps
        ready = sorted(
            (inst for inst in members if indegree[inst.name] == 0),
            key=lambda i: i.name,
        )
        order: list[Instance] = []
        while ready:
            inst = ready.pop()
            order.append(inst)
            if inst.output is None:
                continue
            for sink, _ in inst.output.sinks:
                if sink.name in indegree and not sink.is_ff:
                    indegree[sink.name] -= 1
                    if indegree[sink.name] == 0:
                        ready.append(sink)
        if len(order) != len(members):
            raise NetlistError("combinational loop inside ECO region")
        return order

    # -- evaluation ----------------------------------------------------

    def _evaluate(
        self, inputs: dict[str, int], n_patterns: int, state: dict[str, int]
    ) -> list[int]:
        if n_patterns < 1:
            raise NetlistError("need at least one pattern")
        mask = (1 << n_patterns) - 1
        v = [0] * self._n_slots
        for port, slot in self._inputs:
            try:
                v[slot] = inputs[port] & mask
            except KeyError:
                raise NetlistError(
                    f"no stimulus for primary input {port!r}"
                ) from None
        for name, slot_q, init, _ in self._ffs:
            word = state.get(name)
            if word is None:
                word = mask if init else 0
            else:
                word &= mask
            v[slot_q] = word
        for fn, s, d in self._tape:
            v[d] = fn(v, s, mask)
        return v

    def run(
        self,
        inputs: dict[str, int],
        n_patterns: int,
        state: dict[str, int] | None = None,
    ) -> dict[str, int]:
        """Primary-output words for the given input words."""
        self.ensure_current()
        v = self._evaluate(inputs, n_patterns, state or {})
        return {name: v[slot] for name, slot in self._outputs}

    def next_state(
        self,
        inputs: dict[str, int],
        n_patterns: int,
        state: dict[str, int],
    ) -> tuple[dict[str, int], dict[str, int]]:
        """(outputs, next FF state) for one clock cycle."""
        self.ensure_current()
        v = self._evaluate(inputs, n_patterns, state)
        outputs = {name: v[slot] for name, slot in self._outputs}
        nxt = {name: v[slot_d] for name, _, _, slot_d in self._ffs}
        return outputs, nxt

    def probe(
        self,
        inputs: dict[str, int],
        n_patterns: int,
        state: dict[str, int] | None = None,
    ) -> dict[str, int]:
        """The word on every driven net — used by error localization."""
        self.ensure_current()
        v = self._evaluate(inputs, n_patterns, state or {})
        return {name: v[slot] for name, slot in self._probe_slots}

    # -- cone slicing --------------------------------------------------

    def cone_runner(self, ports) -> ConeRunner | None:
        """Sliced runner for the sequential fanin cone of ``ports``.

        The runner replays the subset of this revision's tape whose
        instances reach a port, so a localization probe verdict
        evaluates only the logic that can affect the probe.  ``None``
        when a port is not a primary output of the netlist.
        """
        self.ensure_current()
        nl = self.netlist
        by_port = {port_name(po): po for po in nl.primary_outputs()}
        if any(port not in by_port for port in ports):
            return None
        cone = nl.fanin_cone(
            [by_port[port] for port in ports], stop_at_ffs=False
        )
        tape = [
            entry for entry, name in zip(self._tape, self._instr_names)
            if name in cone
        ]
        inputs = [
            (port_name(pi), self._slot_of_net[pi.output.name])
            for pi in nl.primary_inputs()
            if pi.name in cone
        ]
        ffs = [entry for entry in self._ffs if entry[0] in cone]
        outs = [
            (port, self._slot_of_net[by_port[port].inputs[0].name])
            for port in ports
        ]
        return ConeRunner(tape, inputs, ffs, outs, self._n_slots)


class ConeRunner:
    """Sequential replay restricted to one observed-port fanin slice.

    Bit-identical to stepping the full kernel and reading the same
    ports: the sequential fanin cone is closed under fanin, so every
    value a slice gate or slice FF reads is itself computed by the
    slice (or filled from a leaf).  Holds its own FF state — callers
    ``reset`` then ``step`` it exactly like an emulator.
    """

    def __init__(self, tape, inputs, ffs, outs, n_slots: int) -> None:
        self._tape = tape  # [(micro_fn, srcs, dest)], a kernel tape slice
        self._inputs = inputs  # [(port, slot)]
        self._ffs = ffs  # [(name, slot_q, init, slot_d)]
        self._outs = outs  # [(port, slot)]
        self._n_slots = n_slots
        self.state: dict[str, int] = {}

    def reset(self, n_patterns: int = 1) -> None:
        mask = (1 << n_patterns) - 1
        self.state = {
            name: (mask if init else 0)
            for name, _, init, _ in self._ffs
        }

    def step(
        self, inputs: dict[str, int], n_patterns: int = 1
    ) -> dict[str, int]:
        if n_patterns < 1:
            raise NetlistError("need at least one pattern")
        mask = (1 << n_patterns) - 1
        v = [0] * self._n_slots
        for port, slot in self._inputs:
            v[slot] = inputs.get(port, 0) & mask
        state = self.state
        for name, slot_q, init, _ in self._ffs:
            word = state.get(name)
            if word is None:
                word = mask if init else 0
            else:
                word &= mask
            v[slot_q] = word
        for fn, s, d in self._tape:
            v[d] = fn(v, s, mask)
        self.state = {
            name: v[slot_d] for name, _, _, slot_d in self._ffs
        }
        return {port: v[slot] for port, slot in self._outs}


# ----------------------------------------------------------------------
# shared kernels
# ----------------------------------------------------------------------

_KERNELS: "WeakKeyDictionary[Netlist, CompiledKernel]" = WeakKeyDictionary()


def kernel_for(netlist: Netlist) -> CompiledKernel:
    """One shared kernel per netlist (revision-checked on every use)."""
    kernel = _KERNELS.get(netlist)
    if kernel is None:
        kernel = CompiledKernel(netlist)
        _KERNELS[netlist] = kernel
    return kernel

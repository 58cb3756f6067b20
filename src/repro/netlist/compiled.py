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
``(fn, srcs, dest)``: its code-generated evaluator (below), the tuple of
its operand slots (input pin order) and its output slot.  A parallel
list holds the instance names, which incremental recompiles filter on.

Primary inputs and DFF Q values are *leaves*: their slots are filled
from the stimulus/state dicts before the tape runs, so the tape itself
is pure straight-line combinational evaluation in topological order.
OUTPUT markers and DFF D pins are metadata (slot references), not
instructions.

Each ``(opcode, arity, table)`` signature is code-generated once into a
tiny evaluator function and cached process-wide, so tape replay is one
function call per gate — no per-gate kind dispatch, no dict lookups, no
minterm loops.  A LUT table is written as a recursive Shannon cofactor
decomposition (:func:`_decompose`): a 3-input mux table becomes
``(x1 & ~x0) | (x2 & x0)`` where its minterm sum-of-products needs four
3-literal terms, and a 4-input XOR ``x0 ^ (x1 ^ (x2 ^ x3))``.  The
complement of the complement's decomposition is taken wherever it has
fewer operators (a NAND table is ``~(x0 & (x1 & x2)) & m``), and every
new LUT evaluator must reproduce its table on the projection words
before it is cached.  Results are bit-exact against the interpreted
engine.

Incremental recompile
=====================

The kernel syncs itself on every use (:meth:`CompiledKernel.ensure_current`):
when the netlist revision moved, it reads the netlist's edit log
(:meth:`~repro.netlist.core.Netlist.edits_since` its last revision), so
every edit is seen, whoever made it, and re-lowers **only the
combinational fanout region** of the
touched instances: because that region is fanout-closed, its old tape
entries can be dropped and the freshly lowered region appended after
the surviving prefix while preserving topological validity.  Only a
region that cannot be re-lowered (a combinational loop mid-edit) costs
a full recompile, so the kernel can never silently run stale.

Generations and traces
======================

One evaluated cycle is the *row* ``v`` itself: every slot's word.  A
:class:`~repro.netlist.simulate.Trace` keeps each cycle's row of a run
from reset, bound to :attr:`CompiledKernel.generation`.  An additive
edit (new cells, none feeding an existing one) changes no existing
slot's words and only appends slots, so the generation holds and a
trace recorded before it still gives every recorded net's words; a
full compile (slots renumber) or a non-additive incremental edit (a
changed or removed instance) renews the generation, which marks every
earlier trace stale.  Localization reads probe verdicts off the DUT
trace this way instead of re-emulating.
"""

from __future__ import annotations

import re
from functools import lru_cache
from itertools import count
from weakref import WeakKeyDictionary, ref

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

#: process-wide, so no two kernels ever share a generation number
_GENERATIONS = count()


# ----------------------------------------------------------------------
# micro-kernel code generation (cached per signature)
# ----------------------------------------------------------------------

_FN_CACHE: dict[tuple[int, int, int | None], object] = {}


def _cofactors(table: int, n: int, i: int) -> tuple[int, int]:
    """Tables of ``table`` (over n inputs) with input i fixed to 0 / 1.

    Input i alternates runs of 2^i patterns at 0 and at 1, so each
    cofactor is every other run, packed.
    """
    width = 1 << i
    run = (1 << width) - 1
    f0 = f1 = 0
    for b in range(1 << (n - 1 - i)):
        f0 |= ((table >> (2 * b * width)) & run) << (b * width)
        f1 |= ((table >> ((2 * b + 1) * width)) & run) << (b * width)
    return f0, f1


def _group(expr: str) -> str:
    return expr if expr.isidentifier() or expr == "0" else f"({expr})"


@lru_cache(maxsize=1 << 12)
def _decompose(table: int, names: tuple[str, ...]) -> tuple[int, str]:
    """``(operator count, expression)`` of a table over input ``names``.

    A recursive Shannon cofactor decomposition.  Bit p of ``table`` is
    the output for the pattern that carries bit j of p on ``names[j]``.
    Each level splits on the variable whose cofactors ``f0``/``f1``
    give the cheapest expression: a variable the table ignores is
    dropped; a constant cofactor becomes ``x & f1``, ``~x & f0``,
    ``x | f0`` or ``(~x & m) | f1``; complementary cofactors become
    ``x ^ f0``; anything else the mux ``(f0 & ~x) | (f1 & x)``.  Every
    form stays within the mask ``m`` as long as its operands do.  Ties
    go to the lowest input index, so the choice is deterministic.
    """
    n = len(names)
    full = (1 << (1 << n)) - 1
    if table == 0:
        return 0, "0"
    if table == full:
        return 0, "m"
    sub_full = (1 << (1 << (n - 1))) - 1
    best = None
    for i, x in enumerate(names):
        rest = names[:i] + names[i + 1:]
        f0, f1 = _cofactors(table, n, i)
        if f0 == f1:
            return _decompose(f0, rest)
        if f0 == 0 and f1 == sub_full:
            cand = (0, x)
        elif f0 == 0:
            cost, expr = _decompose(f1, rest)
            cand = (cost + 1, f"{x} & {_group(expr)}")
        elif f1 == 0:
            cost, expr = _decompose(f0, rest)
            cand = (cost + 2, f"~{x} & {_group(expr)}")
        elif f1 == sub_full:
            cost, expr = _decompose(f0, rest)
            cand = (cost + 1, f"{x} | {_group(expr)}")
        elif f0 == sub_full:
            cost, expr = _decompose(f1, rest)
            cand = (cost + 3, f"(~{x} & m) | {_group(expr)}")
        elif f1 == f0 ^ sub_full:
            cost, expr = _decompose(f0, rest)
            cand = (cost + 1, f"{x} ^ {_group(expr)}")
        else:
            cost0, expr0 = _decompose(f0, rest)
            cost1, expr1 = _decompose(f1, rest)
            cand = (
                cost0 + cost1 + 4,
                f"({_group(expr0)} & ~{x}) | ({_group(expr1)} & {x})",
            )
        if best is None or cand[0] < best[0]:
            best = cand
    return best


def _function(loads: list[str], body: str) -> str:
    lines = ["def _f(v, s, m):"] + [f"    {load}" for load in loads]
    return "\n".join(lines + [f"    return {body}"])


def _lut_source(k: int, table: int) -> str:
    """Evaluator source of a k-input LUT table.

    The cheaper of the table's cofactor decomposition
    (:func:`_decompose`) and ``~(...) & m`` over the decomposition of
    its complement (two more operators; ties keep the direct form),
    loading only the inputs it reads.  The complement form serves
    tables such as NAND, whose complement is one chain of ``&``.
    """
    full = (1 << (1 << k)) - 1
    table &= full
    names = tuple(f"x{j}" for j in range(k))
    cost, body = _decompose(table, names)
    inv_cost, inv_body = _decompose(table ^ full, names)
    if inv_cost + 2 < cost:
        body = f"~{_group(inv_body)} & m"
    loads = [
        f"x{j} = v[s[{j}]]" for j in range(k)
        if re.search(rf"\bx{j}\b", body)
    ]
    return _function(loads, body)


def _gen_source(op: int, k: int, table: int | None) -> str:
    if op == OP_LUT:
        return _lut_source(k, table or 0)
    xs = [f"x{i}" for i in range(k)]
    loads = [f"x{i} = v[s[{i}]]" for i in range(k)]
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
    else:  # pragma: no cover - lowering rejects unknown kinds
        raise NetlistError(f"no micro-kernel for opcode {op}")
    return _function(loads, body)


def _check_lut(fn, k: int, table: int) -> None:
    """Raise unless ``fn`` reproduces ``table`` on the projection words.

    Over the 2^k patterns, pattern p carries bit j of p on input j, so
    the evaluator's output word must be the table itself.
    """
    size = 1 << k
    full = (1 << size) - 1
    words = [
        sum(1 << p for p in range(size) if (p >> j) & 1) for j in range(k)
    ]
    got = fn(words, tuple(range(k)), full)
    if got != table & full:
        raise NetlistError(
            f"micro-kernel for {k}-input LUT table {table:#x} "
            f"evaluates to {got:#x}"
        )


def _build_fn(op: int, k: int, table: int | None):
    """Generate and compile the evaluator of one signature.

    A LUT evaluator is checked against its table (:func:`_check_lut`)
    before it is returned.
    """
    namespace: dict = {}
    source = _gen_source(op, k, table)
    key = (op, k, table)
    exec(compile(source, f"<microkernel {key}>", "exec"), namespace)
    fn = namespace["_f"]
    if op == OP_LUT:
        _check_lut(fn, k, table or 0)
    return fn


def _fn_for(op: int, k: int, table: int | None):
    """Evaluator ``f(values, src_slots, mask)`` for one signature."""
    key = (op, k, table if op == OP_LUT else None)
    fn = _FN_CACHE.get(key)
    if fn is None:
        fn = _FN_CACHE[key] = _build_fn(*key)
    return fn


# ----------------------------------------------------------------------
# the kernel
# ----------------------------------------------------------------------


class CompiledKernel:
    """Lowered, replayable form of one netlist.

    Offers the same interface as :class:`CombinationalSimulator`
    (``slots``, ``row``, ``outputs_of``, ``state_of``, ``next_state``)
    and is bit-exact against it.  Use
    :func:`kernel_for` to share one kernel per netlist across the
    emulator, :func:`~repro.netlist.simulate.replay_outputs`, the golden
    trace and the localizer.
    """

    def __init__(self, netlist: Netlist) -> None:
        # weak: :data:`_KERNELS` maps each netlist to its kernel weakly,
        # so a strong reference here would keep every netlist alive
        self._netlist = ref(netlist)
        #: diagnostics: full lowerings / incremental re-lowerings done
        self.compile_count = 0
        self.incremental_count = 0
        self._compile_full()

    @property
    def netlist(self) -> Netlist:
        return self._netlist()

    # -- lowering ------------------------------------------------------

    def _compile_full(self) -> None:
        nl = self.netlist
        self._slot_of_net: dict[str, int] = {}
        self._tape: list[tuple] = []  # [(micro_fn, srcs, dest)]
        self._instr_names: list[str] = []

        order = nl.topo_order()
        for net in nl.nets():
            self._slot_of_net[net.name] = len(self._slot_of_net)
        for inst in order:
            if inst.kind in _LEAF_KINDS:
                continue
            self._append_instr(inst)
        self._rebuild_metadata()
        self._revision = nl.revision
        #: renewed whenever rows computed before may be stale: here
        #: (slots renumber) and on a non-additive incremental edit
        self.generation = next(_GENERATIONS)
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
        self._tape.append((_fn_for(op, len(srcs), table), srcs, dest))
        self._instr_names.append(inst.name)

    def _rebuild_metadata(self) -> None:
        """Leaf/IO slot maps; O(inputs + FFs + outputs), always rebuilt.

        The netlist's per-kind registries hand over the three lists
        without a scan of every instance.
        """
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
        self._n_slots = len(self._slot_of_net)

    # -- incremental recompile -----------------------------------------

    def ensure_current(self) -> None:
        """Catch up with every netlist edit since the last sync.

        Re-lowers only the combinational fanout region of the netlist's
        :meth:`~repro.netlist.core.Netlist.edits_since` this kernel's
        revision; recompiles fully only when that fails (e.g. a
        combinational loop introduced mid-edit).
        """
        if self.netlist.revision == self._revision:
            return
        try:
            self._apply_incremental(
                *self.netlist.edits_since(self._revision)
            )
        except NetlistError:
            self._compile_full()

    def _apply_incremental(
        self, changed: set[str], new: set[str], removed: set[str]
    ) -> None:
        nl = self.netlist
        seeds = [nl.instance(n) for n in changed | new]
        # the comb fanout region; every tape entry reading a region
        # output is itself in the region, so the region can be re-lowered
        # and appended after the surviving (still topologically sorted)
        # prefix
        region = nl.fanout_cone(seeds, stop_at_ffs=True) if seeds else set()
        # additive: only new cells, none feeding an existing one, so no
        # existing slot's words change and a trace stays exact; no
        # new cell is on the tape yet, so the tape keeps every entry
        additive = not changed and not removed and region <= new
        if not additive:
            drop = region | removed
            kept = [
                (entry, name)
                for entry, name in zip(self._tape, self._instr_names)
                if name not in drop
            ]
            self._tape = [entry for entry, _ in kept]
            self._instr_names = [name for _, name in kept]
            self.generation = next(_GENERATIONS)

        # nets created by the edit get their slots as the region is
        # lowered (and as the metadata reads leaf and port nets)
        for inst in self._region_topo(region):
            self._append_instr(inst)
        self._rebuild_metadata()
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

    @property
    def slots(self) -> dict[str, int]:
        """Net name → slot; within a generation slots are only added."""
        return self._slot_of_net

    def row(
        self, inputs: dict[str, int], n_patterns: int, state: dict[str, int]
    ) -> list[int]:
        """Every slot's word for one clock cycle."""
        self.ensure_current()
        return self._evaluate(inputs, n_patterns, state)

    def outputs_of(self, row: list[int]) -> dict[str, int]:
        return {name: row[slot] for name, slot in self._outputs}

    def state_of(self, row: list[int]) -> dict[str, int]:
        return {name: row[slot_d] for name, _, _, slot_d in self._ffs}

    def next_state(
        self,
        inputs: dict[str, int],
        n_patterns: int,
        state: dict[str, int],
    ) -> tuple[dict[str, int], dict[str, int]]:
        """(outputs, next FF state) for one clock cycle."""
        row = self.row(inputs, n_patterns, state)
        return self.outputs_of(row), self.state_of(row)


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

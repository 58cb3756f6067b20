"""Core netlist data model: :class:`Netlist`, :class:`Instance`, :class:`Net`.

The model is a flat, single-clock, single-output-per-instance netlist —
exactly the shape MCNC benchmarks, technology mapping and the debugging
ECO edits need:

* a :class:`Net` has one driver pin and any number of sink pins;
* an :class:`Instance` has an ordered list of input nets and (except for
  ``OUTPUT`` markers) one output net;
* the netlist owns both tables and keeps them consistent through every
  mutation (the ECO operations used by error injection and correction).

Mutation API used by the debug flow:

* :meth:`Netlist.set_input` — rewire one input pin (wrong-wire errors),
* :meth:`Netlist.change_kind` — substitute a gate (wrong-gate errors),
* :meth:`Netlist.transfer_sinks` — move all loads from one net to another
  (inserting observation/control logic in series),
* :meth:`Netlist.remove_instance` / :meth:`Netlist.prune_dangling` —
  delete logic during tile clearing and correction.

Every instance mutation also appends ``(revision, instance name, kind)``
to an edit log (three parallel arrays; net-only edits and no-op rewires
log nothing), which :meth:`Netlist.edits_since` folds for every consumer
that syncs to the netlist: change recorders, the kernel, the packing.
A :meth:`Netlist.copy` starts its log empty, at the copy's revision.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

from repro.errors import NetlistError, ValidationError
from repro.netlist.cells import (
    CellKind,
    arity_of,
    is_sequential,
)


def port_name(marker: "Instance") -> str:
    """Strip the ``pi:``/``po:`` prefix from an IO marker name."""
    name = marker.name
    if ":" in name:
        return name.split(":", 1)[1]
    return name


class Net:
    """A signal: one driver pin, many sink pins.

    ``sinks`` holds ``(instance, input_index)`` pairs.  The driver is the
    instance whose output pin produces the signal, or ``None`` while the
    net is under construction (or after its driver was removed).
    ``serial`` orders nets by creation in their netlist, which is the
    order :meth:`Netlist.nets` yields them in.
    """

    __slots__ = ("name", "driver", "sinks", "serial")

    def __init__(self, name: str, serial: int = 0) -> None:
        self.name = name
        self.driver: Instance | None = None
        self.sinks: list[tuple[Instance, int]] = []
        self.serial = serial

    @property
    def fanout(self) -> int:
        return len(self.sinks)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        driver = self.driver.name if self.driver else "<none>"
        return f"Net({self.name!r}, driver={driver}, fanout={self.fanout})"


class Instance:
    """One cell instance.

    ``params`` carries kind-specific data: ``{"table": int}`` for LUTs,
    ``{"init": 0|1}`` for DFFs.  Input order is significant (MUX2 select,
    LUT variable order).  ``serial`` orders instances the way
    :meth:`Netlist.instances` yields them (a rename moves an instance
    to the end).
    """

    __slots__ = ("name", "kind", "inputs", "output", "params", "serial")

    def __init__(
        self,
        name: str,
        kind: CellKind,
        inputs: list[Net],
        output: Net | None,
        params: dict | None = None,
        serial: int = 0,
    ) -> None:
        self.name = name
        self.kind = kind
        self.inputs = inputs
        self.output = output
        self.params = params if params is not None else {}
        self.serial = serial

    @property
    def is_lut(self) -> bool:
        return self.kind is CellKind.LUT

    @property
    def is_ff(self) -> bool:
        return is_sequential(self.kind)

    @property
    def is_io(self) -> bool:
        return self.kind in (CellKind.INPUT, CellKind.OUTPUT)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Instance({self.name!r}, {self.kind})"


@dataclass
class NetlistStats:
    """Size summary used by reports and calibration tests."""

    n_inputs: int = 0
    n_outputs: int = 0
    n_gates: int = 0
    n_luts: int = 0
    n_ffs: int = 0
    n_nets: int = 0
    depth: int = 0


@dataclass(frozen=True)
class Adjacency:
    """Precomputed sparse connectivity over a fixed instance indexing.

    ``names[i]`` follows combinational topological order; ``fanin[i]``
    and ``fanout[i]`` hold instance indices (drivers of ``i``'s input
    pins, and sinks of ``i``'s output net).  The table is memoized on
    the owning :class:`Netlist` and invalidated by its revision counter,
    so engines that repeatedly walk the graph (compiled simulation,
    bitset cone computation) stop paying the dict-of-objects traversal
    cost on every construction.
    """

    names: tuple[str, ...]
    index: dict[str, int]
    fanin: tuple[tuple[int, ...], ...]
    fanout: tuple[tuple[int, ...], ...]


#: kinds with their own instance registry, so :meth:`Netlist.primary_inputs`,
#: :meth:`Netlist.primary_outputs` and :meth:`Netlist.flip_flops` cost
#: O(IO + FFs) rather than a scan of every instance
_REGISTERED_KINDS = (CellKind.INPUT, CellKind.OUTPUT, CellKind.DFF)

#: edit-log entry kinds
_ADDED, _EDITED, _REMOVED = 0, 1, 2


class Netlist:
    """A mutable flat netlist with consistent connectivity tables.

    Structural queries (:meth:`topo_order`, :meth:`levels`,
    :meth:`adjacency`) are memoized; every mutation bumps
    :attr:`revision` and drops the caches, so repeated simulator and
    emulator construction between ECO edits is O(1) instead of O(V+E).
    The returned cached objects must be treated as read-only.

    INPUT, OUTPUT and DFF instances are also kept in per-kind
    registries in instance order, maintained by every mutation that
    adds, removes, renames or re-kinds an instance.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self._instances: dict[str, Instance] = {}
        self._nets: dict[str, Net] = {}
        self._by_kind: dict[CellKind, dict[str, Instance]] = {
            kind: {} for kind in _REGISTERED_KINDS
        }
        self._serial = 0
        self._uid = 0
        self._revision = 0
        self._topo_cache: list[Instance] | None = None
        self._levels_cache: dict[str, int] | None = None
        self._adj_cache: Adjacency | None = None
        #: revision the edit log starts at (a copy's log starts at
        #: the copy)
        self._log_base = 0
        self._log_revisions = array("q")
        self._log_names: list[str] = []
        self._log_kinds = bytearray()

    @property
    def revision(self) -> int:
        """Monotone mutation counter; engines key their caches on it."""
        return self._revision

    def _mutated(self) -> None:
        self._revision += 1
        self._topo_cache = None
        self._levels_cache = None
        self._adj_cache = None

    def _logged(self, kind: int, *names: str) -> None:
        """Bump the revision and log ``kind`` for each instance name."""
        self._mutated()
        for name in names:
            self._log_revisions.append(self._revision)
            self._log_names.append(name)
            self._log_kinds.append(kind)

    def edits_since(self, revision: int) -> tuple[set[str], set[str], set[str]]:
        """(changed, new, removed) instance names since ``revision``.

        An instance present at ``revision`` and now is *changed* if any
        edit touched it (a ``set_params``/``change_kind`` that writes
        the value already there counts; removed and re-added under the
        same name counts); one added since is *new*; one present then
        and gone now is *removed*; one added and removed inside the
        window is in no set.  Costs O(edits since ``revision``).
        A revision before the log's start (a copy's log starts at the
        copy) or past the current one raises :class:`NetlistError`.
        """
        if not self._log_base <= revision <= self._revision:
            raise NetlistError(
                f"revision {revision} is not in {self.name!r}'s edit log "
                f"({self._log_base}..{self._revision})"
            )
        start = bisect_right(self._log_revisions, revision)
        first: dict[str, int] = {}
        for name, kind in zip(
            self._log_names[start:], self._log_kinds[start:]
        ):
            first.setdefault(name, kind)
        changed, new, removed = set(), set(), set()
        for name, kind in first.items():
            if name in self._instances:
                (new if kind == _ADDED else changed).add(name)
            elif kind != _ADDED:
                removed.add(name)
        return changed, new, removed

    def _next_serial(self) -> int:
        self._serial += 1
        return self._serial

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    def fresh_name(self, prefix: str) -> str:
        """Return a name not yet used by any instance or net."""
        while True:
            self._uid += 1
            candidate = f"{prefix}${self._uid}"
            if candidate not in self._instances and candidate not in self._nets:
                return candidate

    def add_net(self, name: str | None = None) -> Net:
        if name is None:
            name = self.fresh_name("n")
        if name in self._nets:
            raise NetlistError(f"net {name!r} already exists")
        net = Net(name, self._next_serial())
        self._nets[name] = net
        self._mutated()
        return net

    def add_instance(
        self,
        kind: CellKind,
        inputs: Iterable[Net],
        name: str | None = None,
        output: Net | None = None,
        params: dict | None = None,
    ) -> Instance:
        """Create an instance, allocating an output net unless given.

        ``OUTPUT`` markers take no output net.  Every input net must
        already belong to this netlist.
        """
        input_list = list(inputs)
        arity_of(kind, len(input_list))
        if name is None:
            name = self.fresh_name(kind.value.lower())
        if name in self._instances:
            raise NetlistError(f"instance {name!r} already exists")
        for net in input_list:
            self._require_net(net)
        if kind is CellKind.OUTPUT:
            if output is not None:
                raise NetlistError("OUTPUT instances have no output net")
        elif output is None:
            output = self.add_net(self.fresh_name(f"{name}_o"))
        elif output.driver is not None:
            raise NetlistError(f"net {output.name!r} already has a driver")

        inst = Instance(
            name, kind, input_list, output, params, self._next_serial()
        )
        self._instances[name] = inst
        registry = self._by_kind.get(kind)
        if registry is not None:
            registry[name] = inst
        if output is not None:
            output.driver = inst
        for idx, net in enumerate(input_list):
            net.sinks.append((inst, idx))
        self._logged(_ADDED, name)
        return inst

    def add_input(self, name: str) -> Net:
        """Create a primary input; the driven net shares the port name."""
        net = self.add_net(name)
        self.add_instance(CellKind.INPUT, [], name=f"pi:{name}", output=net)
        return net

    def add_output(self, name: str, net: Net) -> Instance:
        """Mark ``net`` as the primary output called ``name``."""
        return self.add_instance(CellKind.OUTPUT, [net], name=f"po:{name}")

    def add_gate(
        self, kind: CellKind, inputs: Iterable[Net], name: str | None = None
    ) -> Net:
        """Convenience: create a gate and return its output net."""
        return self.add_instance(kind, inputs, name=name).output

    def add_lut(
        self,
        inputs: Iterable[Net],
        table: int,
        name: str | None = None,
        output: Net | None = None,
    ) -> Instance:
        input_list = list(inputs)
        size = 1 << len(input_list)
        if table >> size:
            raise NetlistError(
                f"table {table:#x} too wide for {len(input_list)} inputs"
            )
        return self.add_instance(
            CellKind.LUT,
            input_list,
            name=name,
            output=output,
            params={"table": table},
        )

    def add_dff(
        self,
        data: Net,
        name: str | None = None,
        output: Net | None = None,
        init: int = 0,
    ) -> Instance:
        return self.add_instance(
            CellKind.DFF, [data], name=name, output=output, params={"init": init}
        )

    # ------------------------------------------------------------------
    # lookup / iteration
    # ------------------------------------------------------------------

    def instance(self, name: str) -> Instance:
        try:
            return self._instances[name]
        except KeyError:
            raise NetlistError(f"no instance named {name!r}") from None

    def net(self, name: str) -> Net:
        try:
            return self._nets[name]
        except KeyError:
            raise NetlistError(f"no net named {name!r}") from None

    def has_instance(self, name: str) -> bool:
        return name in self._instances

    def has_net(self, name: str) -> bool:
        return name in self._nets

    def instances(self) -> Iterator[Instance]:
        return iter(self._instances.values())

    def nets(self) -> Iterator[Net]:
        return iter(self._nets.values())

    def __len__(self) -> int:
        return len(self._instances)

    def primary_inputs(self) -> list[Instance]:
        return list(self._by_kind[CellKind.INPUT].values())

    def primary_outputs(self) -> list[Instance]:
        return list(self._by_kind[CellKind.OUTPUT].values())

    def logic_instances(self) -> list[Instance]:
        """Gates, LUTs and FFs — everything that consumes fabric area."""
        return [i for i in self._instances.values() if not i.is_io]

    def flip_flops(self) -> list[Instance]:
        return list(self._by_kind[CellKind.DFF].values())

    # ------------------------------------------------------------------
    # mutation (ECO operations)
    # ------------------------------------------------------------------

    def set_input(self, inst: Instance, index: int, net: Net) -> None:
        """Rewire input pin ``index`` of ``inst`` to ``net``."""
        self._require_instance(inst)
        self._require_net(net)
        if not 0 <= index < len(inst.inputs):
            raise NetlistError(
                f"{inst.name} has no input pin {index} "
                f"(arity {len(inst.inputs)})"
            )
        old = inst.inputs[index]
        if old is net:
            return
        old.sinks.remove((inst, index))
        inst.inputs[index] = net
        net.sinks.append((inst, index))
        self._logged(_EDITED, inst.name)

    def change_kind(
        self, inst: Instance, kind: CellKind, params: dict | None = None
    ) -> None:
        """Substitute the cell kind, keeping connectivity.

        The new kind must accept the instance's current input count —
        this models the paper's "small functional alteration" debugging
        change that swaps a gate without touching wiring.
        """
        self._require_instance(inst)
        arity_of(kind, len(inst.inputs))
        if kind is CellKind.OUTPUT or inst.kind is CellKind.OUTPUT:
            raise NetlistError("cannot change to/from OUTPUT markers")
        if kind is not inst.kind:
            registry = self._by_kind.get(inst.kind)
            if registry is not None:
                del registry[inst.name]
            registry = self._by_kind.get(kind)
            if registry is not None:
                # the instance keeps its place in instance order
                registry[inst.name] = inst
                self._by_kind[kind] = dict(
                    sorted(registry.items(), key=lambda kv: kv[1].serial)
                )
        inst.kind = kind
        inst.params = params if params is not None else {}
        self._logged(_EDITED, inst.name)

    def set_params(self, inst: Instance, params: dict) -> None:
        """Replace an instance's params, bumping the revision counter.

        Use this (not ``inst.params = {...}``) for functional edits like
        LUT retabling so memoizing engines observe the change.
        """
        self._require_instance(inst)
        inst.params = dict(params)
        self._logged(_EDITED, inst.name)

    def transfer_sinks(
        self,
        source: Net,
        target: Net,
        keep: Callable[[Instance, int], bool] | None = None,
    ) -> int:
        """Move sink pins from ``source`` onto ``target``.

        ``keep(inst, idx)`` may retain selected pins on the source net —
        needed when splicing an instrumentation cell into a net (the
        spliced cell itself must keep reading the source).  Returns the
        number of pins moved.
        """
        self._require_net(source)
        self._require_net(target)
        if source is target:
            raise NetlistError("cannot transfer a net onto itself")
        moved: list[str] = []
        remaining: list[tuple[Instance, int]] = []
        for inst, idx in list(source.sinks):
            if keep is not None and keep(inst, idx):
                remaining.append((inst, idx))
                continue
            inst.inputs[idx] = target
            target.sinks.append((inst, idx))
            moved.append(inst.name)
        source.sinks = remaining
        if moved:
            self._logged(_EDITED, *moved)
        return len(moved)

    def remove_instance(self, inst: Instance) -> None:
        """Delete an instance; its output net loses its driver."""
        self._require_instance(inst)
        for idx, net in enumerate(inst.inputs):
            net.sinks.remove((inst, idx))
        if inst.output is not None:
            inst.output.driver = None
        del self._instances[inst.name]
        registry = self._by_kind.get(inst.kind)
        if registry is not None:
            del registry[inst.name]
        self._logged(_REMOVED, inst.name)

    def remove_net(self, net: Net) -> None:
        self._require_net(net)
        if net.driver is not None or net.sinks:
            raise NetlistError(f"net {net.name!r} is still connected")
        del self._nets[net.name]
        self._mutated()

    def prune_dangling(self) -> int:
        """Drop nets with neither driver nor sinks; return count removed."""
        dangling = [n for n in self._nets.values() if n.driver is None and not n.sinks]
        for net in dangling:
            del self._nets[net.name]
        if dangling:
            self._mutated()
        return len(dangling)

    def rename_instance(self, inst: Instance, new_name: str) -> None:
        """Rename ``inst``; the log sees the old name go, the new come."""
        self._require_instance(inst)
        if new_name in self._instances:
            raise NetlistError(f"instance {new_name!r} already exists")
        old_name = inst.name
        del self._instances[old_name]
        registry = self._by_kind.get(inst.kind)
        if registry is not None:
            del registry[old_name]
            registry[new_name] = inst
        inst.name = new_name
        inst.serial = self._next_serial()
        self._instances[new_name] = inst
        self._logged(_REMOVED, old_name)
        self._logged(_ADDED, new_name)

    # ------------------------------------------------------------------
    # analysis
    # ------------------------------------------------------------------

    def topo_order(self) -> list[Instance]:
        """Combinational topological order of every instance.

        Sources are primary inputs, constants and DFF outputs; a DFF's D
        pin is a cycle-breaking sink.  Raises :class:`ValidationError` on
        a combinational loop.

        The result is memoized until the next mutation; callers must not
        modify the returned list.
        """
        if self._topo_cache is None:
            self._topo_cache = self._compute_topo_order()
        return self._topo_cache

    def _compute_topo_order(self) -> list[Instance]:
        indegree: dict[str, int] = {}
        ready: deque[Instance] = deque()
        for inst in self._instances.values():
            if inst.kind in (CellKind.INPUT, CellKind.CONST0, CellKind.CONST1):
                deps = 0
            elif inst.is_ff:
                deps = 0  # Q is available at cycle start
            else:
                # Undriven pins cannot be waited on; the validator reports
                # them separately.
                deps = sum(1 for n in inst.inputs if n.driver is not None)
            indegree[inst.name] = deps
            if deps == 0:
                ready.append(inst)

        order: list[Instance] = []
        while ready:
            inst = ready.popleft()
            order.append(inst)
            if inst.output is None:
                continue
            for sink, _ in inst.output.sinks:
                if sink.is_ff:
                    continue  # D pin does not gate anything this cycle
                indegree[sink.name] -= 1
                if indegree[sink.name] == 0:
                    ready.append(sink)

        # DFF D-pin dependencies were never counted as blocking, but the
        # FFs themselves were emitted up front; combinational cells left
        # unvisited indicate a loop.
        if len(order) != len(self._instances):
            missing = sorted(set(self._instances) - {i.name for i in order})
            raise ValidationError(
                f"combinational loop involving: {', '.join(missing[:8])}"
                + ("..." if len(missing) > 8 else "")
            )
        return order

    def levels(self) -> dict[str, int]:
        """Logic level (unit-delay depth) of every instance.

        Memoized until the next mutation; treat the result as read-only.
        """
        if self._levels_cache is None:
            self._levels_cache = self._compute_levels()
        return self._levels_cache

    def _compute_levels(self) -> dict[str, int]:
        level: dict[str, int] = {}
        for inst in self.topo_order():
            if inst.kind in (CellKind.INPUT, CellKind.CONST0, CellKind.CONST1):
                level[inst.name] = 0
            elif inst.is_ff:
                level[inst.name] = 0
            elif inst.kind is CellKind.OUTPUT:
                level[inst.name] = level[inst.inputs[0].driver.name] if (
                    inst.inputs[0].driver
                ) else 0
            else:
                preds = [
                    level[n.driver.name] for n in inst.inputs if n.driver is not None
                ]
                level[inst.name] = 1 + (max(preds) if preds else 0)
        return level

    def depth(self) -> int:
        """Combinational depth in logic levels."""
        lv = self.levels()
        return max(lv.values(), default=0)

    def stats(self) -> NetlistStats:
        stats = NetlistStats(n_nets=len(self._nets))
        for inst in self._instances.values():
            if inst.kind is CellKind.INPUT:
                stats.n_inputs += 1
            elif inst.kind is CellKind.OUTPUT:
                stats.n_outputs += 1
            elif inst.is_lut:
                stats.n_luts += 1
            elif inst.is_ff:
                stats.n_ffs += 1
            else:
                stats.n_gates += 1
        stats.depth = self.depth()
        return stats

    def adjacency(self) -> Adjacency:
        """Sparse instance-index connectivity in topological order.

        Memoized until the next mutation; treat the result as read-only.
        """
        if self._adj_cache is None:
            self._adj_cache = self._compute_adjacency()
        return self._adj_cache

    def _compute_adjacency(self) -> Adjacency:
        order = self.topo_order()
        names = tuple(inst.name for inst in order)
        index = {name: i for i, name in enumerate(names)}
        fanin: list[tuple[int, ...]] = []
        fanout: list[list[int]] = [[] for _ in order]
        for i, inst in enumerate(order):
            drivers = []
            for net in inst.inputs:
                if net.driver is not None:
                    drivers.append(index[net.driver.name])
            fanin.append(tuple(drivers))
        for i in range(len(order)):
            for d in fanin[i]:
                fanout[d].append(i)
        return Adjacency(
            names=names,
            index=index,
            fanin=tuple(fanin),
            fanout=tuple(tuple(f) for f in fanout),
        )

    def fanin_cone(
        self, seeds: Iterable[Instance], stop_at_ffs: bool = True
    ) -> set[str]:
        """Names of instances in the transitive fanin of ``seeds``.

        Error localization narrows suspicion to fanin cones of failing
        outputs; with ``stop_at_ffs`` the walk does not cross flip-flop
        boundaries (single-cycle cone).
        """
        seen: set[str] = set()
        work = list(seeds)
        while work:
            inst = work.pop()
            if inst.name in seen:
                continue
            seen.add(inst.name)
            if stop_at_ffs and inst.is_ff:
                continue
            for net in inst.inputs:
                if net.driver is not None and net.driver.name not in seen:
                    work.append(net.driver)
        return seen

    def fanout_cone(
        self, seeds: Iterable[Instance], stop_at_ffs: bool = True
    ) -> set[str]:
        """Names of instances in the transitive fanout of ``seeds``."""
        seen: set[str] = set()
        work = list(seeds)
        # snapshot seed names up front: ``seeds`` may be a one-shot
        # iterator (already drained into ``work``), and membership tests
        # against it would then silently see an empty sequence
        seed_names = {inst.name for inst in work}
        while work:
            inst = work.pop()
            if inst.name in seen:
                continue
            seen.add(inst.name)
            if stop_at_ffs and inst.is_ff and inst.name not in seed_names:
                continue
            if inst.output is None:
                continue
            for sink, _ in inst.output.sinks:
                if sink.name not in seen:
                    work.append(sink)
        return seen

    # ------------------------------------------------------------------
    # copying
    # ------------------------------------------------------------------

    def copy(self, name: str | None = None) -> "Netlist":
        """Deep structural copy (instances, nets, params).

        The clone's tables are built directly, with what building it
        through :meth:`add_net` then :meth:`add_instance` would give:
        the same net and instance order, nets numbered 1..N and
        instances N+1..N+M, each net's sinks in instance order, and a
        revision of N+M.  Its edit log starts empty at that revision
        (no construction entries), so :meth:`edits_since` any earlier
        revision raises.
        """
        clone = Netlist(name or self.name)
        clone._uid = self._uid
        nets = clone._nets
        serial = 0
        for net in self._nets.values():
            serial += 1
            nets[net.name] = Net(net.name, serial)
        instances = clone._instances
        by_kind = clone._by_kind
        for old in self._instances.values():
            serial += 1
            inputs = [nets[net.name] for net in old.inputs]
            output = nets[old.output.name] if old.output is not None else None
            inst = Instance(
                old.name, old.kind, inputs, output, dict(old.params), serial
            )
            instances[old.name] = inst
            registry = by_kind.get(old.kind)
            if registry is not None:
                registry[old.name] = inst
            if output is not None:
                output.driver = inst
            for idx, net in enumerate(inputs):
                net.sinks.append((inst, idx))
        clone._serial = clone._revision = clone._log_base = serial
        return clone

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _require_net(self, net: Net) -> None:
        if self._nets.get(net.name) is not net:
            raise NetlistError(f"net {net.name!r} does not belong to {self.name!r}")

    def _require_instance(self, inst: Instance) -> None:
        if self._instances.get(inst.name) is not inst:
            raise NetlistError(
                f"instance {inst.name!r} does not belong to {self.name!r}"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Netlist({self.name!r}, {len(self._instances)} instances, "
            f"{len(self._nets)} nets)"
        )

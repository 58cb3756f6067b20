"""Design-error injection.

Debugging needs bugs.  The injector plants realistic design errors into
a *mapped* netlist — the kinds of mistakes HDL-level slips turn into
after synthesis:

=================  ====================================================
kind               effect
=================  ====================================================
``table_bit``      one minterm of a LUT truth table flipped
``wrong_function`` a LUT's table replaced by a different common gate
``output_invert``  a LUT's table complemented (missing inverter)
``input_swap``     two input pins of a LUT exchanged
``wrong_source``   one LUT input rewired to a nearby signal
=================  ====================================================

Every injection returns an :class:`ErrorRecord` carrying the exact undo
information; :func:`repro.debug.correct.apply_correction` replays it,
modelling the designer's fix arriving through back-annotation.

:func:`inject_errors` plants a *set* of ``k`` errors — distinct
instances, injected in order into the already-mutated netlist, each one
cycle-safe with respect to everything planted before it.  Stacked
records undo cleanly in reverse order.  :func:`inject_error` is the
one-element shim and stays bit-identical to the historical single-fault
injector (same RNG stream, same candidate pools, same choice).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import DebugFlowError
from repro.netlist.cells import CellKind, lut_table_for_gate
from repro.netlist.core import Netlist
from repro.rng import make_rng

ERROR_KINDS = (
    "table_bit",
    "wrong_function",
    "output_invert",
    "input_swap",
    "wrong_source",
)


@dataclass
class ErrorRecord:
    """One injected error and how to undo it."""

    kind: str
    instance: str
    detail: str
    undo: dict = field(default_factory=dict)


def inject_error(
    netlist: Netlist, kind: str, seed: int = 0
) -> ErrorRecord:
    """Plant one error of ``kind``; netlist is modified in place."""
    return inject_errors(netlist, [kind], seed=seed)[0]


def inject_errors(
    netlist: Netlist,
    kinds,
    seed: int = 0,
    n_errors: int | None = None,
) -> list[ErrorRecord]:
    """Plant ``n_errors`` non-overlapping errors; returns their records.

    ``kinds`` is one kind name or a list of them; a single kind is
    repeated to fill ``n_errors`` (which defaults to ``len(kinds)``).
    Errors land on *distinct* instances — every already-faulted
    instance is excluded from later candidate pools — and each
    injection is cycle-safe against the netlist state the previous ones
    produced.  The first injection draws from the exact RNG stream the
    historical single-error injector used, so ``n_errors == 1``
    reproduces it bit-for-bit; later injections derive independent
    streams labelled by their index.
    """
    if isinstance(kinds, str):
        kinds = [kinds]
    kinds = list(kinds)
    if not kinds:
        raise DebugFlowError("need at least one error kind to inject")
    if n_errors is None:
        n_errors = len(kinds)
    if n_errors < 1:
        raise DebugFlowError(f"n_errors must be >= 1, got {n_errors}")
    if len(kinds) == 1 and n_errors > 1:
        kinds = kinds * n_errors
    if len(kinds) != n_errors:
        raise DebugFlowError(
            f"{len(kinds)} error kinds given for n_errors={n_errors}"
        )
    for kind in kinds:
        if kind not in ERROR_KINDS:
            raise DebugFlowError(
                f"unknown error kind {kind!r}; choose from {ERROR_KINDS}"
            )
    records: list[ErrorRecord] = []
    used: set[str] = set()
    for i, kind in enumerate(kinds):
        labels = ("inject", kind, netlist.name)
        if i:
            labels = labels + ("multi", i)
        rng = make_rng(seed, *labels)
        record = _inject_one(netlist, kind, rng, used)
        records.append(record)
        used.add(record.instance)
    return records


def _inject_one(
    netlist: Netlist, kind: str, rng, exclude: set[str]
) -> ErrorRecord:
    """One injection into the current netlist state, avoiding ``exclude``."""
    luts = sorted(
        (
            i for i in netlist.instances()
            if i.kind is CellKind.LUT and i.inputs
            and i.name not in exclude
        ),
        key=lambda i: i.name,
    )
    if not luts:
        raise DebugFlowError("netlist has no LUTs left to corrupt")

    if kind == "table_bit":
        inst = luts[rng.randrange(len(luts))]
        bit = rng.randrange(1 << len(inst.inputs))
        old = inst.params["table"]
        netlist.set_params(inst, {"table": old ^ (1 << bit)})
        return ErrorRecord(kind, inst.name, f"minterm {bit}",
                           {"table": old})

    if kind == "wrong_function":
        candidates = [i for i in luts if len(i.inputs) >= 2]
        if not candidates:
            raise DebugFlowError("no multi-input LUT left to corrupt")
        inst = candidates[rng.randrange(len(candidates))]
        old = inst.params["table"]
        choices = [CellKind.AND, CellKind.OR, CellKind.XOR, CellKind.NAND]
        for gate in rng.sample(choices, len(choices)):
            table = lut_table_for_gate(gate, len(inst.inputs))
            if table != old:
                netlist.set_params(inst, {"table": table})
                return ErrorRecord(kind, inst.name, f"became {gate}",
                                   {"table": old})
        raise DebugFlowError("could not find a differing gate function")

    if kind == "output_invert":
        inst = luts[rng.randrange(len(luts))]
        old = inst.params["table"]
        size = 1 << len(inst.inputs)
        netlist.set_params(inst, {"table": ~old & ((1 << size) - 1)})
        return ErrorRecord(kind, inst.name, "output inverted",
                           {"table": old})

    if kind == "input_swap":
        # only swaps that change the function are design errors: swapping
        # the pins of a symmetric LUT (XOR, AND) is a no-op
        candidates = []
        for inst in luts:
            if len(inst.inputs) < 2:
                continue
            for a in range(len(inst.inputs)):
                for b_pin in range(a + 1, len(inst.inputs)):
                    if inst.inputs[a] is inst.inputs[b_pin]:
                        continue
                    table = inst.params["table"]
                    if _swap_table(table, len(inst.inputs), a, b_pin) != table:
                        candidates.append((inst, a, b_pin))
        if not candidates:
            raise DebugFlowError("no asymmetric LUT pin pair to swap")
        inst, a, b = candidates[rng.randrange(len(candidates))]
        net_a, net_b = inst.inputs[a], inst.inputs[b]
        netlist.set_input(inst, a, net_b)
        netlist.set_input(inst, b, net_a)
        return ErrorRecord(
            kind, inst.name, f"pins {a}<->{b}",
            {"pins": (a, b)},
        )

    if kind == "wrong_source":
        return _inject_wrong_source(netlist, luts, rng)
    raise DebugFlowError(f"unhandled error kind {kind!r}")  # pragma: no cover


def _swap_table(table: int, k: int, a: int, b: int) -> int:
    """Truth table after exchanging input variables ``a`` and ``b``."""
    swapped = 0
    for minterm in range(1 << k):
        bit_a = (minterm >> a) & 1
        bit_b = (minterm >> b) & 1
        source = minterm & ~(1 << a) & ~(1 << b)
        source |= bit_b << a | bit_a << b
        if (table >> source) & 1:
            swapped |= 1 << minterm
    return swapped


def _inject_wrong_source(netlist: Netlist, luts, rng) -> ErrorRecord:
    # rewire one pin to another net of similar depth
    inst = luts[rng.randrange(len(luts))]
    pin = rng.randrange(len(inst.inputs))
    old_net = inst.inputs[pin]
    # identity-hash membership keeps this O(nets) instead of O(pins·nets),
    # and — because it tests the pin list as mutated by any *earlier*
    # injection — the pool is a pure function of the current netlist
    # state, so stacking a second error stays deterministic
    current_inputs = set(inst.inputs)
    pool = [
        n for n in netlist.nets()
        if n.driver is not None
        and n is not old_net
        and n not in current_inputs
        and not n.driver.is_io
    ]
    if not pool:
        raise DebugFlowError("no alternative source nets available")
    pool.sort(key=lambda n: n.name)
    # avoid creating a combinational cycle: reject nets in our fanout
    fanout = netlist.fanout_cone([inst])
    safe = [n for n in pool if n.driver.name not in fanout]
    if not safe:
        raise DebugFlowError("every candidate source would form a cycle")
    new_net = safe[rng.randrange(len(safe))]
    netlist.set_input(inst, pin, new_net)
    return ErrorRecord(
        "wrong_source", inst.name,
        f"pin {pin}: {old_net.name} -> {new_net.name}",
        {"pin": pin, "old_net": old_net.name},
    )

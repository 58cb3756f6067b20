"""A run's design fork is a clone of the pristine design.

:meth:`~repro.netlist.core.Netlist.copy` builds the clone's tables
directly and must equal the copy built one ``add_instance`` call per
object (``tests/conftest.py::reference_copy``), its log's construction
entries apart; :meth:`~repro.synth.pack.PackedDesign.fork` must equal a
fresh :func:`~repro.synth.pack.pack_netlist` of that copy, and a run's
edits to its fork must never reach the pristine bundle.
"""

import pytest

from repro.api.design import DesignMemo, fork_bundle
from repro.api.spec import RunSpec
from repro.debug.errors import ERROR_KINDS, inject_errors
from repro.errors import NetlistError, SynthesisError
from repro.generators import paper_design_names
from repro.netlist.cells import CellKind
from repro.netlist.compiled import kernel_for
from repro.netlist.simulate import replay_outputs
from repro.rng import make_rng
from repro.synth.pack import PackedDesign, pack_netlist
from repro.tiling.manager import absorb_changes
from tests.conftest import (
    fresh_packed_design,
    make_adder_netlist,
    netlist_signature,
    reference_copy,
)


def packing_signature(packed: PackedDesign) -> tuple:
    """Every field of a packing, as plain values in order."""
    return (
        [
            (clb.name, [(b.lut, b.ff, b.output_net, b.input_nets)
                        for b in clb.bles])
            for clb in packed.clbs
        ],
        list(packed.blocks),
        list(packed.nets.items()),
        list(packed.block_of_instance.items()),
        packed.revision,
        list(packed._net_index_of_name.items()),
        packed._next_net_index,
        list(packed._clb_by_name),
    )


@pytest.fixture(scope="module")
def entries():
    """Every registry design's memo entry at preset ``fast``."""
    names = paper_design_names()
    memo = DesignMemo(max_entries=len(names))
    return {
        name: memo.lookup(
            RunSpec(design=name, preset="fast", engine="interpreted")
        )[0]
        for name in names
    }


def _edit_by_name(netlist):
    """A retable, a rewire, a sink transfer, a removal and an added LUT,
    each picked by name, so two equal netlists get the same edits."""
    logic = sorted(
        (i for i in netlist.instances() if not i.is_io and i.inputs),
        key=lambda i: i.name,
    )
    nets = sorted(
        (n for n in netlist.nets() if n.driver is not None),
        key=lambda n: n.name,
    )
    first, second, third = logic[0], logic[len(logic) // 2], logic[-1]
    netlist.set_params(first, dict(first.params, tag=1))
    netlist.set_input(second, 0, nets[0])
    netlist.transfer_sinks(nets[1], nets[2])
    netlist.remove_instance(third)
    netlist.add_lut([nets[3], nets[4]], 0b0110, name=netlist.fresh_name("x"))


@pytest.mark.parametrize("name", paper_design_names())
def test_copy_equals_the_add_instance_copy(entries, name):
    bundle = entries[name].bundle
    for source in (bundle.netlist, bundle.mapped):
        clone, ref = source.copy("c"), reference_copy(source, "c")
        base = clone.revision
        assert netlist_signature(clone) == netlist_signature(ref, base)
        # the clone's log starts at the copy
        assert not clone._log_names
        # deep: no record shared with the source
        assert all(
            a is not b for a, b in zip(clone.instances(), source.instances())
        )
        assert all(a is not b for a, b in zip(clone.nets(), source.nets()))
        assert all(
            clone.net(net.name) is net
            for inst in clone.instances()
            for net in inst.inputs
        )
        # both sides log the same later edits
        _edit_by_name(clone)
        _edit_by_name(ref)
        assert netlist_signature(clone) == netlist_signature(ref, base)
        for revision in range(base, clone.revision + 1):
            assert clone.edits_since(revision) == ref.edits_since(revision)
        with pytest.raises(NetlistError):
            clone.edits_since(base - 1)


@pytest.mark.parametrize("name", paper_design_names())
def test_fork_is_a_fresh_pack_of_the_copy_and_stays_isolated(entries, name):
    pristine = entries[name].bundle
    before = (
        packing_signature(pristine.packed),
        netlist_signature(pristine.mapped),
    )
    fork = fork_bundle(pristine)
    assert fork.packed.netlist is fork.mapped
    assert packing_signature(fork.packed) == packing_signature(
        pack_netlist(pristine.mapped.copy())
    )
    # the frozen records are shared, the mutable ones copied
    assert all(
        a is b for a, b in zip(fork.packed.blocks, pristine.packed.blocks)
    )
    assert all(
        fork.packed.nets[idx] is net
        for idx, net in pristine.packed.nets.items()
    )
    for a, b in zip(fork.packed.clbs, pristine.packed.clbs):
        assert a is not b and a.bles is not b.bles
        assert all(x is not y for x, y in zip(a.bles, b.bles))

    # a run's edits: errors, then a retired LUT (its BLE emptied) and
    # an added one (a new CLB), absorbed into the fork's packing
    netlist = fork.mapped
    inject_errors(netlist, ERROR_KINDS, seed=1)
    luts = sorted(
        (i for i in netlist.instances() if i.kind is CellKind.LUT),
        key=lambda i: i.name,
    )
    netlist.remove_instance(luts[-1])
    netlist.add_lut(luts[0].inputs[:2], 0b1000, name=netlist.fresh_name("x"))
    _, new_blocks, _ = absorb_changes(fork.packed, None)
    assert new_blocks and packing_signature(fork.packed) != before[0]
    assert (
        packing_signature(pristine.packed),
        netlist_signature(pristine.mapped),
    ) == before


def test_fork_refuses_a_stale_packing_and_an_unmapped_netlist():
    packed = fresh_packed_design()
    with pytest.raises(SynthesisError, match="unmapped"):
        packed.fork(make_adder_netlist(6, registered=True))
    lut = next(i for i in packed.netlist.instances() if i.is_lut)
    packed.netlist.set_params(lut, {"table": lut.params["table"] ^ 1})
    with pytest.raises(SynthesisError, match="revision"):
        packed.fork(packed.netlist.copy())
    absorb_changes(packed, None)
    copy = packed.netlist.copy()
    assert packing_signature(packed.fork(copy)) == packing_signature(
        pack_netlist(copy)
    )


def test_a_kernel_on_a_copy_syncs_incrementally(entries):
    """A copy's log holds no construction entries, yet a kernel lowered
    on it syncs later edits incrementally, one edit or several."""
    copy = entries["9sym"].bundle.mapped.copy()
    rng = make_rng(1, "fork-kernel")
    ports = [pi.name.split(":", 1)[1] for pi in copy.primary_inputs()]
    stimulus = [{p: rng.getrandbits(64) for p in ports} for _ in range(8)]
    kernel = kernel_for(copy)
    replay_outputs(copy, stimulus, 64)
    luts = [i for i in copy.instances() if i.is_lut]
    rev = copy.revision
    copy.set_params(luts[0], {"table": luts[0].params["table"] ^ 1})
    assert copy.edits_since(rev)[0] == {luts[0].name}
    for lut in luts[1:4]:
        copy.set_params(lut, {"table": lut.params["table"] ^ 1})
    assert replay_outputs(copy, stimulus, 64) == replay_outputs(
        copy, stimulus, 64, engine="interpreted"
    )
    assert (kernel.compile_count, kernel.incremental_count) == (1, 1)

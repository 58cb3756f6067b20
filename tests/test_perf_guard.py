"""Perf smoke guard: structure caching and cone-engine invariants.

These tests exist so cache-invalidation bugs fail fast:

* non-mutating analysis/simulation must not bump the netlist revision
  or recompute the memoized ``topo_order()``/``levels()``/adjacency;
* every mutation class must bump the revision and drop the caches;
* the compiled kernel must stay on the incremental path for
  changeset-tracked ECOs and recompile fully for untracked ones;
* the bitset cone engine must agree with the BFS reference.
"""

import pytest

from repro.debug.instrument import add_observation_point
from repro.netlist import (
    CellKind,
    CombinationalSimulator,
    ConeIndex,
    SequentialSimulator,
    kernel_for,
)
from repro.netlist.compiled import CompiledKernel
from repro.rng import make_rng
from tests.conftest import make_adder_netlist


@pytest.fixture
def mid_design(styr_bundle):
    """Mid-size mapped design, read-only (session-scoped bundle)."""
    return styr_bundle.mapped


class TestStructureCaching:
    def test_nonmutating_calls_do_not_recompute(self, mid_design):
        netlist = mid_design
        rev = netlist.revision
        order = netlist.topo_order()
        levels = netlist.levels()
        adj = netlist.adjacency()
        # simulate both engines and re-query: no recompute, no bump
        sim = SequentialSimulator(netlist, engine="compiled")
        sim.step({n.name.split(":", 1)[-1]: 0
                  for n in netlist.primary_inputs()}, 1)
        CombinationalSimulator(netlist)
        netlist.stats()
        assert netlist.topo_order() is order
        assert netlist.levels() is levels
        assert netlist.adjacency() is adj
        assert netlist.revision == rev

    def test_every_mutation_class_bumps_revision(self):
        netlist = make_adder_netlist(4, registered=True)
        order = netlist.topo_order()

        def bumped(before):
            assert netlist.revision > before
            assert netlist.topo_order() is not order
            return netlist.revision

        rev = netlist.revision
        net = netlist.add_net("guard_net")
        rev = bumped(rev)
        inst = netlist.add_lut([net], 0b01, name="guard_lut")
        order = netlist.topo_order()
        rev = netlist.revision
        netlist.set_params(inst, {"table": 0b10})
        rev = bumped(rev)
        order = netlist.topo_order()
        netlist.change_kind(inst, CellKind.BUF)
        rev = bumped(rev)
        order = netlist.topo_order()
        other = netlist.net(netlist.primary_inputs()[0].output.name)
        netlist.set_input(inst, 0, other)
        rev = bumped(rev)
        order = netlist.topo_order()
        netlist.rename_instance(inst, "guard_lut2")
        rev = bumped(rev)
        order = netlist.topo_order()
        netlist.remove_instance(inst)
        rev = bumped(rev)
        order = netlist.topo_order()
        netlist.prune_dangling()
        rev = bumped(rev)

    def test_levels_and_adjacency_invalidate_on_mutation(self):
        netlist = make_adder_netlist(4)
        levels = netlist.levels()
        adj = netlist.adjacency()
        netlist.add_net("x")
        assert netlist.levels() is not levels
        assert netlist.adjacency() is not adj


class TestCompiledKernelGuard:
    def test_shared_kernel_not_recompiled_by_reuse(self, mid_design):
        kernel = kernel_for(mid_design)
        assert kernel is kernel_for(mid_design)
        count = kernel.compile_count
        names = {
            pi.name.split(":", 1)[-1] for pi in mid_design.primary_inputs()
        }
        rng = make_rng(0, "guard")
        inputs = {n: rng.getrandbits(16) for n in names}
        kernel.run(inputs, 16)
        kernel.probe(inputs, 16)
        assert kernel.compile_count == count

    def test_tracked_eco_stays_incremental(self):
        netlist = make_adder_netlist(6, registered=True)
        from repro.synth import map_to_luts

        mapped = map_to_luts(netlist)
        kernel = CompiledKernel(mapped)
        watch = mapped.primary_outputs()[0].inputs[0].name
        changes, _ = add_observation_point(mapped, [watch], "g0")
        kernel.apply_changeset(changes)
        assert kernel.compile_count == 1
        assert kernel.incremental_count == 1

    def test_partial_changeset_forces_full_recompile(self):
        """A changeset that doesn't start at the kernel's synced
        revision (untracked edits slipped in between) must not be
        applied incrementally over the gap."""
        netlist = make_adder_netlist(6, registered=True)
        from repro.synth import map_to_luts

        mapped = map_to_luts(netlist)
        kernel = CompiledKernel(mapped)
        # untracked edit: bumps the revision without a changeset
        lut = next(i for i in mapped.instances() if i.is_lut and i.inputs)
        mapped.set_params(lut, {"table": lut.params["table"] ^ 1})
        # tracked edit recorded after the gap
        watch = mapped.primary_outputs()[0].inputs[0].name
        changes, _ = add_observation_point(mapped, [watch], "g1")
        kernel.apply_changeset(changes)
        assert kernel.compile_count == 2
        assert kernel.incremental_count == 0
        # and the recompiled tape must reflect the untracked retable
        fresh = CompiledKernel(mapped)
        inputs = {
            pi.name.split(":", 1)[-1]: 0b1011
            for pi in mapped.primary_inputs()
        }
        assert kernel.run(inputs, 4) == fresh.run(inputs, 4)

    def test_untracked_eco_forces_full_recompile(self):
        netlist = make_adder_netlist(6, registered=True)
        from repro.synth import map_to_luts

        mapped = map_to_luts(netlist)
        kernel = CompiledKernel(mapped)
        lut = next(i for i in mapped.instances() if i.is_lut and i.inputs)
        mapped.set_params(lut, {"table": lut.params["table"] ^ 1})
        kernel.probe(
            {pi.name.split(":", 1)[-1]: 0
             for pi in mapped.primary_inputs()}, 1
        )
        assert kernel.compile_count == 2


class TestConeEngine:
    def test_bitset_cones_match_bfs(self, mid_design):
        for stop in (False, True):
            index = ConeIndex(mid_design, stop_at_ffs=stop)
            sample = sorted(
                i.name for i in mid_design.instances()
            )[:: max(1, len(mid_design) // 25)]
            for name in sample:
                inst = mid_design.instance(name)
                assert index.names_of(index.fanin(name)) == (
                    mid_design.fanin_cone([inst], stop_at_ffs=stop)
                )

    def test_mask_roundtrip(self, mid_design):
        index = ConeIndex(mid_design)
        names = {i.name for i in mid_design.instances()}
        assert index.names_of(index.mask_of(names)) == names
        assert index.mask_of([]) == 0
        assert index.names_of(0) == set()


class TestFanoutConeSeeds:
    def test_generator_seeds_match_list_seeds(self):
        netlist = make_adder_netlist(6, registered=True)
        ffs = netlist.flip_flops()
        assert ffs
        from_list = netlist.fanout_cone(list(ffs), stop_at_ffs=True)
        from_gen = netlist.fanout_cone(
            (ff for ff in ffs), stop_at_ffs=True
        )
        assert from_gen == from_list
        # seed FFs must expand through their own Q fanout
        assert any(name not in {f.name for f in ffs} for name in from_gen)

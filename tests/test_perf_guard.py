"""Perf smoke guard: structure caching and cone-engine invariants.

These tests exist so cache-invalidation bugs fail fast:

* non-mutating analysis/simulation must not bump the netlist revision
  or recompute the memoized ``topo_order()``/``levels()``/adjacency;
* every mutation class must bump the revision and drop the caches;
* the compiled kernel must stay on the incremental path for every
  ECO, recorded in a changeset or not (it reads the netlist's edit log);
* the bitset cone engine must agree with the BFS reference.
"""

import pytest

from repro.debug.instrument import add_observation_point
from repro.netlist import (
    CellKind,
    CombinationalSimulator,
    ConeIndex,
    kernel_for,
)
from repro.netlist.compiled import CompiledKernel
from repro.netlist.simulate import replay_outputs
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
        replay_outputs(netlist, [{}])
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
        kernel.next_state(inputs, 16, {})
        kernel.row(inputs, 16, {})
        assert kernel.compile_count == count

    def test_tracked_eco_stays_incremental(self):
        netlist = make_adder_netlist(6, registered=True)
        from repro.synth import map_to_luts

        mapped = map_to_luts(netlist)
        kernel = CompiledKernel(mapped)
        watch = mapped.primary_outputs()[0].inputs[0].name
        add_observation_point(mapped, [watch], "g0")
        kernel.ensure_current()
        assert kernel.compile_count == 1
        assert kernel.incremental_count == 1

    def test_partial_changeset_stays_incremental(self):
        """An untracked edit before a recorded changeset is not lost:
        the kernel reads both from the netlist's edit log and re-lowers
        them in one incremental pass."""
        netlist = make_adder_netlist(6, registered=True)
        from repro.synth import map_to_luts

        mapped = map_to_luts(netlist)
        kernel = CompiledKernel(mapped)
        # untracked edit: no changeset records it
        lut = next(i for i in mapped.instances() if i.is_lut and i.inputs)
        mapped.set_params(lut, {"table": lut.params["table"] ^ 1})
        # tracked edit recorded after the gap
        watch = mapped.primary_outputs()[0].inputs[0].name
        add_observation_point(mapped, [watch], "g1")
        kernel.ensure_current()
        assert kernel.compile_count == 1
        assert kernel.incremental_count == 1
        # and the re-lowered tape must reflect the untracked retable
        fresh = CompiledKernel(mapped)
        inputs = {
            pi.name.split(":", 1)[-1]: 0b1011
            for pi in mapped.primary_inputs()
        }
        assert kernel.next_state(inputs, 4, {}) == fresh.next_state(
            inputs, 4, {}
        )

    def test_untracked_eco_stays_incremental(self):
        netlist = make_adder_netlist(6, registered=True)
        from repro.synth import map_to_luts

        mapped = map_to_luts(netlist)
        kernel = CompiledKernel(mapped)
        lut = next(i for i in mapped.instances() if i.is_lut and i.inputs)
        mapped.set_params(lut, {"table": lut.params["table"] ^ 1})
        kernel.row(
            {pi.name.split(":", 1)[-1]: 0
             for pi in mapped.primary_inputs()}, 1, {}
        )
        assert kernel.compile_count == 1
        assert kernel.incremental_count == 1


    def test_failed_relower_falls_back_to_full_recompile(
        self, monkeypatch
    ):
        """An edit the incremental pass cannot re-lower is recompiled
        in full, and the tape still matches a fresh kernel."""
        from repro.errors import NetlistError
        from repro.synth import map_to_luts

        mapped = map_to_luts(make_adder_netlist(6, registered=True))
        kernel = CompiledKernel(mapped)
        lut = next(i for i in mapped.instances() if i.is_lut and i.inputs)
        mapped.set_params(lut, {"table": lut.params["table"] ^ 1})

        def refuse(*edits):
            raise NetlistError("cannot re-lower")

        monkeypatch.setattr(kernel, "_apply_incremental", refuse)
        inputs = {
            pi.name.split(":", 1)[-1]: 0b0110
            for pi in mapped.primary_inputs()
        }
        assert kernel.next_state(inputs, 4, {}) == CompiledKernel(
            mapped
        ).next_state(inputs, 4, {})
        assert (kernel.compile_count, kernel.incremental_count) == (2, 0)


class TestChangeRecording:
    def test_observation_point_records_without_an_instance_walk(
        self, monkeypatch
    ):
        """A probe's delta is folded from the netlist's edit log: on
        des, neither ``add_observation_point`` nor the fold
        (``Netlist.edits_since``) walks every instance."""
        from repro.generators import build_design
        from repro.netlist.core import Netlist

        netlist = build_design("des").packed.netlist
        watch = [i.output.name for i in netlist.logic_instances()[:5]]

        def no_walk(self):
            raise AssertionError("walked every instance")

        with monkeypatch.context() as patch:
            patch.setattr(Netlist, "instances", no_walk)
            rev = netlist.revision
            ports = add_observation_point(netlist, watch, "w")
            changed, new, removed = netlist.edits_since(rev)
        added = {
            i.name for i in netlist.instances()
            if i.name.startswith(("obs_w_", "po:obs_"))
        }
        assert new == added
        assert {f"po:{port}" for port in ports} <= added
        assert not changed
        assert not removed


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

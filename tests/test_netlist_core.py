"""Netlist data model: construction, mutation, analysis."""

import pytest

from repro.errors import NetlistError, ValidationError
from repro.generators import build_design
from repro.netlist import CellKind, Netlist, check_netlist
from repro.netlist.core import Net
from repro.netlist.validate import _check_backrefs
from tests.conftest import reference_backrefs


def tiny():
    """y = (a AND b) XOR c, plus a register on the XOR."""
    n = Netlist("tiny")
    a, b, c = n.add_input("a"), n.add_input("b"), n.add_input("c")
    g1 = n.add_instance(CellKind.AND, [a, b], name="g1")
    g2 = n.add_instance(CellKind.XOR, [g1.output, c], name="g2")
    ff = n.add_dff(g2.output, name="ff")
    n.add_output("y", g2.output)
    n.add_output("q", ff.output)
    return n


class TestConstruction:
    def test_connectivity_tables(self):
        n = tiny()
        g1 = n.instance("g1")
        assert g1.output.driver is g1
        assert (n.instance("g2"), 0) in g1.output.sinks

    def test_duplicate_names_rejected(self):
        n = tiny()
        with pytest.raises(NetlistError):
            n.add_net("a")
        with pytest.raises(NetlistError):
            n.add_instance(CellKind.AND, [n.net("a"), n.net("b")], name="g1")

    def test_double_driver_rejected(self):
        n = tiny()
        with pytest.raises(NetlistError):
            n.add_instance(
                CellKind.AND, [n.net("a"), n.net("b")], output=n.net("a")
            )

    def test_foreign_net_rejected(self):
        n, other = tiny(), Netlist("other")
        foreign = other.add_net("x")
        with pytest.raises(NetlistError):
            n.add_instance(CellKind.NOT, [foreign])

    def test_fresh_names_unique(self):
        n = tiny()
        names = {n.fresh_name("t") for _ in range(50)}
        assert len(names) == 50

    def test_lut_table_width_checked(self):
        n = tiny()
        with pytest.raises(NetlistError):
            n.add_lut([n.net("a")], table=0b100)  # 1 input, 2-entry table

    def test_stats(self):
        st = tiny().stats()
        assert st.n_inputs == 3
        assert st.n_outputs == 2
        assert st.n_gates == 2
        assert st.n_ffs == 1
        assert st.depth == 2


class TestMutation:
    def test_set_input_rewires_both_tables(self):
        n = tiny()
        g2 = n.instance("g2")
        a = n.net("a")
        old = g2.inputs[1]
        n.set_input(g2, 1, a)
        assert g2.inputs[1] is a
        assert (g2, 1) in a.sinks
        assert (g2, 1) not in old.sinks
        check_netlist(n)

    def test_change_kind_checks_arity(self):
        n = tiny()
        g1 = n.instance("g1")
        n.change_kind(g1, CellKind.NAND)
        assert g1.kind is CellKind.NAND
        with pytest.raises(NetlistError):
            n.change_kind(g1, CellKind.NOT)  # arity 1 != 2

    def test_transfer_sinks(self):
        n = tiny()
        a, c = n.net("a"), n.net("c")
        moved = n.transfer_sinks(c, a)
        assert moved == 1
        assert c.fanout == 0
        check_netlist(n)

    def test_transfer_sinks_with_keep(self):
        n = tiny()
        g2 = n.instance("g2")
        c, a = n.net("c"), n.net("a")
        n.transfer_sinks(c, a, keep=lambda inst, idx: inst is g2)
        assert (g2, 1) in c.sinks

    def test_remove_instance_detaches(self):
        n = tiny()
        ff = n.instance("ff")
        out_net = ff.output
        n.remove_instance(ff)
        assert out_net.driver is None
        assert not n.has_instance("ff")
        problems = check_netlist(n, strict=False)
        assert any("undriven" in p for p in problems)

    def test_prune_dangling(self):
        n = tiny()
        n.add_net("orphan")
        assert n.prune_dangling() == 1
        assert not n.has_net("orphan")

    def test_rename_instance(self):
        n = tiny()
        g1 = n.instance("g1")
        n.rename_instance(g1, "gate_one")
        assert n.instance("gate_one") is g1
        with pytest.raises(NetlistError):
            n.rename_instance(g1, "g2")


class TestAnalysis:
    def test_topo_order_respects_dependencies(self):
        n = tiny()
        order = [i.name for i in n.topo_order()]
        assert order.index("g1") < order.index("g2")

    def test_topo_order_handles_ff_feedback(self):
        n = Netlist("loop")
        q = n.add_net("q")
        inv = n.add_instance(CellKind.NOT, [q], name="inv")
        n.add_dff(inv.output, name="ff", output=q)
        order = [i.name for i in n.topo_order()]
        assert set(order) == {"inv", "ff"}

    def test_combinational_loop_detected(self):
        n = Netlist("bad")
        x = n.add_net("x")
        g = n.add_instance(CellKind.NOT, [x], name="g")
        # manually close a combinational loop: g drives x via a buffer
        n.add_instance(CellKind.BUF, [g.output], name="b", output=x)
        with pytest.raises(ValidationError):
            n.topo_order()

    def test_levels_and_depth(self):
        n = tiny()
        levels = n.levels()
        assert levels["g1"] == 1
        assert levels["g2"] == 2
        assert n.depth() == 2

    def test_fanin_cone(self):
        n = tiny()
        cone = n.fanin_cone([n.instance("g2")])
        assert {"g1", "g2"} <= cone
        assert "ff" not in cone

    def test_fanout_cone(self):
        n = tiny()
        cone = n.fanout_cone([n.instance("g1")])
        assert {"g1", "g2", "ff"} <= cone

    def test_copy_is_deep_and_equal(self):
        n = tiny()
        clone = n.copy()
        assert sorted(i.name for i in clone.instances()) == sorted(
            i.name for i in n.instances()
        )
        clone.change_kind(clone.instance("g1"), CellKind.OR)
        assert n.instance("g1").kind is CellKind.AND
        check_netlist(clone)


class TestKindRegistries:
    """``primary_inputs``/``primary_outputs``/``flip_flops`` read per-kind
    registries that must always equal a scan of every instance."""

    @staticmethod
    def _assert_registries_match(n):
        scan = list(n._instances.values())
        assert n.primary_inputs() == [i for i in scan if i.kind is CellKind.INPUT]
        assert n.primary_outputs() == [
            i for i in scan if i.kind is CellKind.OUTPUT
        ]
        assert n.flip_flops() == [i for i in scan if i.kind is CellKind.DFF]

    @pytest.mark.parametrize("seed", range(8))
    def test_random_edit_sequences(self, seed):
        from repro.rng import make_rng

        rng = make_rng(seed, "kind-registries")
        n = tiny()
        one_input = (CellKind.BUF, CellKind.NOT, CellKind.DFF)
        no_input = (CellKind.CONST0, CellKind.CONST1, CellKind.INPUT)
        for step in range(120):
            insts = sorted(n.instances(), key=lambda i: i.name)
            nets = sorted(n.nets(), key=lambda x: x.name)
            op = rng.choice(
                ("add", "add", "remove", "kind", "kind", "rename", "copy")
            )
            if op == "add" or not insts:
                kind = rng.choice(
                    (CellKind.DFF, CellKind.AND, CellKind.OUTPUT,
                     CellKind.INPUT, CellKind.NOT)
                )
                if kind is CellKind.INPUT:
                    n.add_input(f"in{step}")
                elif kind is CellKind.OUTPUT:
                    n.add_output(f"out{step}", rng.choice(nets))
                elif kind is CellKind.AND:
                    n.add_instance(kind, rng.sample(nets, 2), name=f"g{step}")
                else:
                    n.add_instance(kind, [rng.choice(nets)], name=f"u{step}")
            elif op == "remove":
                n.remove_instance(rng.choice(insts))
            elif op == "kind":
                inst = rng.choice(
                    [i for i in insts if i.kind is not CellKind.OUTPUT]
                    or insts
                )
                if inst.kind is CellKind.OUTPUT:
                    continue
                pool = {0: no_input, 1: one_input}.get(
                    len(inst.inputs), (CellKind.AND, CellKind.OR)
                )
                n.change_kind(inst, rng.choice(pool))
            elif op == "rename":
                n.rename_instance(rng.choice(insts), f"r{step}")
            else:
                n = n.copy()
            self._assert_registries_match(n)

    def test_rename_moves_to_the_end_and_change_kind_keeps_place(self):
        n = tiny()
        a = n.instance("pi:a")
        n.rename_instance(a, "pi:a2")
        assert [i.name for i in n.primary_inputs()] == ["pi:b", "pi:c", "pi:a2"]
        g1 = n.instance("g1")
        n.set_input(g1, 1, g1.inputs[0])
        n.change_kind(g1, CellKind.LUT, {"table": 0b1000})
        n.change_kind(n.instance("g2"), CellKind.LUT, {"table": 0b0110})
        buf = n.add_instance(CellKind.BUF, [n.net("a")], name="late")
        n.add_dff(buf.output, name="ff_last")
        n.change_kind(buf, CellKind.DFF, {"init": 0})
        assert [i.name for i in n.flip_flops()] == ["ff", "late", "ff_last"]
        self._assert_registries_match(n)


def _pin_missing(n: Netlist) -> None:
    n.net("c").sinks.remove((n.instance("g2"), 1))


def _sink_disagrees(n: Netlist) -> None:
    n.net("c").sinks.append((n.instance("g1"), 0))


def _removed_sink(n: Netlist) -> None:
    gone = n.add_instance(CellKind.AND, [n.net("a"), n.net("b")], name="gone")
    n.remove_instance(gone)
    n.net("a").sinks.append((gone, 0))


def _ghost_net(n: Netlist) -> None:
    # an input reading a net no netlist owns, an output driving one,
    # and a net registered under a name it no longer carries
    n.instance("g1").inputs[1] = Net("ghost_in")
    n.instance("g2").output = Net("ghost_out")
    n.net("c").name = "c_renamed"


def _double_driver(n: Netlist) -> None:
    n.instance("g1").output = n.instance("g2").output


BREAKAGES = [_pin_missing, _sink_disagrees, _removed_sink, _ghost_net,
             _double_driver]


class TestBackrefCheck:
    """The back-reference check builds each net's sink set once; its
    problem list must equal the per-pin list scan's, in order."""

    @pytest.mark.parametrize("breakage", BREAKAGES,
                             ids=lambda f: f.__name__.strip("_"))
    def test_each_breakage_matches_the_reference(self, breakage):
        n = tiny()
        assert _check_backrefs(n) == reference_backrefs(n) == []
        breakage(n)
        problems = _check_backrefs(n)
        assert problems, breakage.__name__
        assert problems == reference_backrefs(n)

    def test_every_breakage_at_once_matches_the_reference(self):
        n = tiny()
        for breakage in BREAKAGES:
            breakage(n)
        assert len(_check_backrefs(n)) >= len(BREAKAGES)
        assert _check_backrefs(n) == reference_backrefs(n)

    @pytest.mark.parametrize("design", ["9sym", "mips"])
    def test_clean_designs_report_nothing(self, design):
        netlist = build_design(design).packed.netlist
        assert _check_backrefs(netlist) == reference_backrefs(netlist) == []

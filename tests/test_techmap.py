"""Technology mapping: primitive set, size, and functional equivalence."""

import random

from hypothesis import given, settings, strategies as st

from repro.generators.random_logic import random_combinational_netlist
from repro.netlist import CellKind, check_netlist, simulate_words
from repro.synth import map_to_luts


def assert_equivalent(original, mapped, n_patterns=64, seed=0):
    rng = random.Random(seed)
    ins = {}
    for pi in original.primary_inputs():
        name = pi.name.split(":", 1)[-1]
        ins[name] = rng.getrandbits(n_patterns)
    assert simulate_words(original, ins, n_patterns) == simulate_words(
        mapped, ins, n_patterns
    )


def test_only_primitives_remain(adder4):
    mapped = map_to_luts(adder4)
    check_netlist(mapped)
    allowed = {CellKind.INPUT, CellKind.OUTPUT, CellKind.LUT, CellKind.DFF}
    assert all(inst.kind in allowed for inst in mapped.instances())


def test_lut_inputs_within_limit(adder4):
    mapped = map_to_luts(adder4)
    assert all(
        len(inst.inputs) <= 4
        for inst in mapped.instances()
        if inst.kind is CellKind.LUT
    )


def test_adder_equivalence(adder4):
    assert_equivalent(adder4, map_to_luts(adder4))


def test_registered_design_keeps_ffs(adder4_registered):
    mapped = map_to_luts(adder4_registered)
    assert len(mapped.flip_flops()) == len(adder4_registered.flip_flops())


def test_collapse_reduces_luts(adder4):
    uncollapsed = map_to_luts(adder4, collapse=False)
    collapsed = map_to_luts(adder4, collapse=True)
    assert collapsed.stats().n_luts <= uncollapsed.stats().n_luts
    assert_equivalent(adder4, collapsed)
    assert_equivalent(adder4, uncollapsed)


def test_constants_are_folded():
    from repro.netlist import Netlist, NetlistBuilder

    n = Netlist("c")
    b = NetlistBuilder(n)
    a = n.add_input("a")
    one = b.const_bit(1)
    zero = b.const_bit(0)
    y = b.and_(a, one)       # == a
    z = b.or_(a, zero)       # == a
    n.add_output("y", y)
    n.add_output("z", z)
    mapped = map_to_luts(n)
    check_netlist(mapped)
    out = simulate_words(mapped, {"a": 0b10}, 2)
    assert out["y"] == 0b10
    assert out["z"] == 0b10


def test_constant_feeding_output_becomes_lut0():
    from repro.netlist import Netlist, NetlistBuilder

    n = Netlist("c")
    b = NetlistBuilder(n)
    n.add_input("a")
    n.add_output("one", b.const_bit(1))
    mapped = map_to_luts(n)
    out = simulate_words(mapped, {"a": 0}, 1)
    assert out["one"] == 1


def test_wide_gates_decomposed():
    from repro.netlist import Netlist

    n = Netlist("w")
    ins = [n.add_input(f"i{k}") for k in range(8)]
    n.add_output("y", n.add_gate(CellKind.NAND, ins))
    mapped = map_to_luts(n)
    check_netlist(mapped)
    all_ones = {f"i{k}": 1 for k in range(8)}
    assert simulate_words(mapped, all_ones, 1)["y"] == 0
    all_ones["i3"] = 0
    assert simulate_words(mapped, all_ones, 1)["y"] == 1


@given(seed=st.integers(0, 1000))
@settings(max_examples=10, deadline=None)
def test_random_logic_equivalence_property(seed):
    """Mapping preserves behaviour on arbitrary random circuits."""
    original = random_combinational_netlist(
        f"rand{seed}", n_inputs=8, n_outputs=6, n_gates=40, seed=seed
    )
    check_netlist(original)
    mapped = map_to_luts(original)
    check_netlist(mapped)
    assert_equivalent(original, mapped, seed=seed)


def test_mips_sized_mapping_is_clean(styr_bundle):
    # calibrated bundles are mapped at build time; re-verify structure
    check_netlist(styr_bundle.mapped)
    assert styr_bundle.mapped.stats().n_gates == 0

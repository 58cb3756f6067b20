"""Levelized simulation engines."""

import pytest

from repro.errors import NetlistError
from repro.netlist import (
    CombinationalSimulator,
    Netlist,
    NetlistBuilder,
    SequentialSimulator,
    simulate_words,
)


def test_missing_stimulus_raises(adder4):
    with pytest.raises(NetlistError):
        simulate_words(adder4, {"a[0]": 1}, 1)


def test_bit_parallel_equals_serial(adder4):
    ins_parallel = {f"a[{i}]": 0b1010 >> i & 1 and 0b1111 for i in range(4)}
    # simpler: two explicit patterns
    ins = {f"a[{i}]": 0 for i in range(4)} | {f"b[{i}]": 0 for i in range(4)}
    ins["a[0]"] = 0b01  # pattern0: a=1; pattern1: a=0
    ins["b[0]"] = 0b10  # pattern0: b=0; pattern1: b=1
    out = simulate_words(adder4, ins, 2)
    # both patterns sum to 1
    assert out["s[0]"] == 0b11
    assert out["cout"] == 0


def test_probe_returns_internal_nets(adder4):
    sim = CombinationalSimulator(adder4)
    ins = {f"a[{i}]": 0 for i in range(4)} | {f"b[{i}]": 0 for i in range(4)}
    values = sim.probe(ins, 1)
    assert len(values) > 8  # internal nets included


def test_sequential_state_advances(adder4_registered):
    sim = SequentialSimulator(adder4_registered)
    ins = {f"a[{i}]": (3 >> i) & 1 for i in range(4)}
    ins |= {f"b[{i}]": (2 >> i) & 1 for i in range(4)}
    first = sim.step(ins)
    # registered outputs show the reset value on the first cycle
    assert sum(first[f"s[{i}]"] << i for i in range(4)) == 0
    second = sim.step(ins)
    assert sum(second[f"s[{i}]"] << i for i in range(4)) == 5


def test_reset_restores_init():
    n = Netlist("t")
    b = NetlistBuilder(n)
    q = b.counter(3, name="c")
    b.output_word("q", q)
    sim = SequentialSimulator(n)
    sim.step({})
    sim.step({})
    sim.reset()
    out = sim.step({})
    assert sum(out[f"q[{i}]"] << i for i in range(3)) == 0


def test_dff_init_value_respected():
    n = Netlist("t")
    src = n.add_input("d")
    ff = n.add_dff(src, name="ff", init=1)
    n.add_output("q", ff.output)
    sim = SequentialSimulator(n)
    out = sim.step({"d": 0})
    assert out["q"] == 1  # init visible on first cycle
    out = sim.step({"d": 0})
    assert out["q"] == 0


def test_run_applies_cycle_sequence(adder4_registered):
    sim = SequentialSimulator(adder4_registered)
    zeros = {f"a[{i}]": 0 for i in range(4)} | {f"b[{i}]": 0 for i in range(4)}
    ones = dict(zeros) | {"a[0]": 1}
    outs = sim.run([ones, zeros, zeros])
    assert len(outs) == 3
    assert outs[1]["s[0]"] == 1  # registered result of cycle 0
    assert outs[2]["s[0]"] == 0

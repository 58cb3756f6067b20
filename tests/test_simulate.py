"""Levelized simulation engines."""

import pytest

from repro.errors import NetlistError
from repro.netlist import (
    CombinationalSimulator,
    Netlist,
    NetlistBuilder,
    make_engine,
)
from repro.netlist.simulate import replay_outputs, stimulus_inputs


def test_missing_stimulus_raises(adder4):
    # the engines refuse a partial input map; only stimulus_inputs
    # fills missing ports with 0
    for engine in ("interpreted", "compiled"):
        with pytest.raises(NetlistError):
            make_engine(adder4, engine).next_state({"a[0]": 1}, 1, {})
    (shaped,) = stimulus_inputs(adder4, [{"a[0]": 1, "nope": 1}])
    assert shaped == {f"a[{i}]": int(i == 0) for i in range(4)} | {
        f"b[{i}]": 0 for i in range(4)
    }


def test_bit_parallel_equals_serial(adder4):
    ins = {f"a[{i}]": 0 for i in range(4)} | {f"b[{i}]": 0 for i in range(4)}
    ins["a[0]"] = 0b01  # pattern0: a=1; pattern1: a=0
    ins["b[0]"] = 0b10  # pattern0: b=0; pattern1: b=1
    (out,) = replay_outputs(adder4, [ins], 2, engine="interpreted")
    # both patterns sum to 1
    assert out["s[0]"] == 0b11
    assert out["cout"] == 0


def test_probe_returns_internal_nets(adder4):
    sim = CombinationalSimulator(adder4)
    ins = {f"a[{i}]": 0 for i in range(4)} | {f"b[{i}]": 0 for i in range(4)}
    row = sim.row(ins, 1, {})
    assert len(row) == len(sim.slots) > 8  # internal nets included


def test_sequential_state_advances(adder4_registered):
    ins = {f"a[{i}]": (3 >> i) & 1 for i in range(4)}
    ins |= {f"b[{i}]": (2 >> i) & 1 for i in range(4)}
    first, second = replay_outputs(adder4_registered, [ins, ins])
    # registered outputs show the reset value on the first cycle
    assert sum(first[f"s[{i}]"] << i for i in range(4)) == 0
    assert sum(second[f"s[{i}]"] << i for i in range(4)) == 5


def test_reset_restores_init():
    n = Netlist("t")
    b = NetlistBuilder(n)
    q = b.counter(3, name="c")
    b.output_word("q", q)
    counted = replay_outputs(n, [{}] * 3)
    assert sum(counted[2][f"q[{i}]"] << i for i in range(3)) == 2
    # every replay starts from reset
    (out,) = replay_outputs(n, [{}])
    assert sum(out[f"q[{i}]"] << i for i in range(3)) == 0


def test_dff_init_value_respected():
    n = Netlist("t")
    src = n.add_input("d")
    ff = n.add_dff(src, name="ff", init=1)
    n.add_output("q", ff.output)
    first, second = replay_outputs(n, [{"d": 0}] * 2)
    assert first["q"] == 1  # init visible on first cycle
    assert second["q"] == 0


def test_run_applies_cycle_sequence(adder4_registered):
    zeros = {f"a[{i}]": 0 for i in range(4)} | {f"b[{i}]": 0 for i in range(4)}
    ones = dict(zeros) | {"a[0]": 1}
    outs = replay_outputs(adder4_registered, [ones, zeros, zeros])
    assert len(outs) == 3
    assert outs[1]["s[0]"] == 1  # registered result of cycle 0
    assert outs[2]["s[0]"] == 0

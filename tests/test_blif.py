"""BLIF reader/writer round trips and MCNC-format corner cases."""

import random

import pytest

from repro.errors import NetlistError
from repro.netlist import check_netlist, simulate_words
from repro.netlist.blif import read_blif, write_blif
from tests.conftest import make_adder_netlist


SAMPLE = """
# a tiny sequential BLIF
.model sample
.inputs a b
.outputs y q
.names a b t1
11 1
.names t1 y
0 1
.latch t1 q re clk 0
.end
"""


def test_read_basic_structure():
    n = read_blif(SAMPLE)
    assert n.name == "sample"
    check_netlist(n)
    assert len(n.primary_inputs()) == 2
    assert len(n.primary_outputs()) == 2
    assert len(n.flip_flops()) == 1


def test_read_semantics():
    n = read_blif(SAMPLE)
    out = simulate_words(n, {"a": 0b11, "b": 0b01}, 2)
    # y = NOT(a AND b): pattern0 a=b=1 -> 0; pattern1 a=1,b=0 -> 1
    assert out["y"] == 0b10


def test_dont_care_cover():
    text = """
.model dc
.inputs a b c
.outputs y
.names a b c y
1-- 1
-11 1
.end
"""
    n = read_blif(text)
    out = simulate_words(n, {"a": 0b0011, "b": 0b0101, "c": 0b1111}, 4)
    # y = a OR (b AND c)
    for p in range(4):
        a, b, c = (0b0011 >> p) & 1, (0b0101 >> p) & 1, 1
        assert (out["y"] >> p) & 1 == (a | (b & c))


def test_offset_cover():
    text = """
.model off
.inputs a b
.outputs y
.names a b y
11 0
"""
    n = read_blif(text)
    out = simulate_words(n, {"a": 0b0101, "b": 0b0011}, 4)
    for p in range(4):
        a, b = (0b0101 >> p) & 1, (0b0011 >> p) & 1
        assert (out["y"] >> p) & 1 == (0 if (a and b) else 1)


def test_constant_names():
    text = """
.model consts
.inputs a
.outputs one zero
.names one
1
.names zero
.end
"""
    n = read_blif(text)
    out = simulate_words(n, {"a": 0}, 1)
    assert out["one"] == 1
    assert out["zero"] == 0


def test_wide_cover_expands_to_gates():
    lits = "abcdefgh"
    rows = "\n".join("1" * 8 + " 1" for _ in range(1))
    text = (
        ".model wide\n.inputs " + " ".join(lits)
        + "\n.outputs y\n.names " + " ".join(lits) + " y\n" + "1" * 8 + " 1\n.end"
    )
    n = read_blif(text)
    check_netlist(n)
    ones = {c: 1 for c in lits}
    assert simulate_words(n, ones, 1)["y"] == 1
    ones["d"] = 0
    assert simulate_words(n, ones, 1)["y"] == 0


def test_malformed_directive_rejected():
    with pytest.raises(NetlistError):
        read_blif(".model x\n.frobnicate\n.end")


def test_roundtrip_preserves_function():
    rng = random.Random(11)
    original = make_adder_netlist(5, registered=True)
    text = write_blif(original)
    parsed = read_blif(text)
    check_netlist(parsed)

    from repro.netlist import SequentialSimulator

    sim_a = SequentialSimulator(original)
    sim_b = SequentialSimulator(parsed)
    for _ in range(4):
        ins = {f"a[{i}]": rng.getrandbits(16) for i in range(5)}
        ins |= {f"b[{i}]": rng.getrandbits(16) for i in range(5)}
        out_a = sim_a.step(ins, 16)
        out_b = sim_b.step(ins, 16)
        assert out_a == out_b


def test_roundtrip_of_mapped_netlist(styr_bundle):
    text = write_blif(styr_bundle.mapped)
    parsed = read_blif(text)
    check_netlist(parsed)
    stats_a = styr_bundle.mapped.stats()
    stats_b = parsed.stats()
    assert stats_a.n_ffs == stats_b.n_ffs
    assert stats_a.n_inputs == stats_b.n_inputs

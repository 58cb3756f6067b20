"""Word-level builder: arithmetic and selection against golden models."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import NetlistError
from repro.netlist import Netlist, NetlistBuilder, check_netlist
from repro.netlist.simulate import replay_outputs
from tests.conftest import comb_outputs


def word_inputs(prefix, values, width, n_patterns):
    """Transpose per-pattern integers into per-bit words."""
    words = {}
    for i in range(width):
        w = 0
        for p, v in enumerate(values):
            if (v >> i) & 1:
                w |= 1 << p
        words[f"{prefix}[{i}]"] = w
    return words


def read_word(outputs, prefix, width, pattern):
    return sum(
        ((outputs[f"{prefix}[{i}]"] >> pattern) & 1) << i for i in range(width)
    )


@given(
    a=st.lists(st.integers(0, 255), min_size=8, max_size=8),
    b=st.lists(st.integers(0, 255), min_size=8, max_size=8),
)
@settings(max_examples=25, deadline=None)
def test_adder_matches_integer_addition(a, b):
    n = Netlist("t")
    bd = NetlistBuilder(n)
    x = bd.input_word("a", 8)
    y = bd.input_word("b", 8)
    s, cout = bd.adder(x, y)
    bd.output_word("s", s)
    n.add_output("cout", cout)
    check_netlist(n)
    ins = word_inputs("a", a, 8, 8) | word_inputs("b", b, 8, 8)
    out = comb_outputs(n, ins, 8)
    for p in range(8):
        total = read_word(out, "s", 8, p) + (((out["cout"] >> p) & 1) << 8)
        assert total == a[p] + b[p]


@given(
    a=st.lists(st.integers(0, 63), min_size=4, max_size=4),
    b=st.lists(st.integers(0, 63), min_size=4, max_size=4),
)
@settings(max_examples=25, deadline=None)
def test_subtractor_and_comparator(a, b):
    n = Netlist("t")
    bd = NetlistBuilder(n)
    x = bd.input_word("a", 6)
    y = bd.input_word("b", 6)
    diff, _ = bd.subtractor(x, y)
    bd.output_word("d", diff)
    n.add_output("lt", bd.less_than_unsigned(x, y))
    n.add_output("eq", bd.equals(x, y))
    ins = word_inputs("a", a, 6, 4) | word_inputs("b", b, 6, 4)
    out = comb_outputs(n, ins, 4)
    for p in range(4):
        assert read_word(out, "d", 6, p) == (a[p] - b[p]) % 64
        assert (out["lt"] >> p) & 1 == int(a[p] < b[p])
        assert (out["eq"] >> p) & 1 == int(a[p] == b[p])


def test_popcount_tree():
    rng = random.Random(3)
    n = Netlist("t")
    bd = NetlistBuilder(n)
    x = bd.input_word("x", 11)
    cnt = bd.popcount(x)
    bd.output_word("c", cnt)
    vals = [rng.getrandbits(11) for _ in range(32)]
    out = comb_outputs(n, word_inputs("x", vals, 11, 32), 32)
    for p in range(32):
        assert read_word(out, "c", len(cnt), p) == bin(vals[p]).count("1")


def test_mux_tree_selects_each_choice():
    n = Netlist("t")
    bd = NetlistBuilder(n)
    sel = bd.input_word("s", 2)
    choices = [bd.const_word(v, 4) for v in (3, 7, 12, 9)]
    out_word = bd.mux_tree(sel, choices)
    bd.output_word("o", out_word)
    for code, expected in enumerate((3, 7, 12, 9)):
        ins = {"s[0]": code & 1, "s[1]": (code >> 1) & 1}
        out = comb_outputs(n, ins, 1)
        assert read_word(out, "o", 4, 0) == expected


def test_mux_tree_wrong_choice_count():
    n = Netlist("t")
    bd = NetlistBuilder(n)
    sel = bd.input_word("s", 2)
    with pytest.raises(NetlistError):
        bd.mux_tree(sel, [bd.const_word(0, 2)] * 3)


def test_decoder_one_hot():
    n = Netlist("t")
    bd = NetlistBuilder(n)
    sel = bd.input_word("s", 3)
    hot = bd.decoder(sel)
    bd.output_word("h", hot)
    for code in range(8):
        ins = {f"s[{i}]": (code >> i) & 1 for i in range(3)}
        out = comb_outputs(n, ins, 1)
        value = read_word(out, "h", 8, 0)
        assert value == 1 << code


def test_decoder_with_enable():
    n = Netlist("t")
    bd = NetlistBuilder(n)
    sel = bd.input_word("s", 2)
    en = n.add_input("en")
    hot = bd.decoder(sel, enable=en)
    bd.output_word("h", hot)
    out = comb_outputs(n, {"s[0]": 1, "s[1]": 0, "en": 0}, 1)
    assert read_word(out, "h", 4, 0) == 0


def test_register_with_enable_holds_value():
    n = Netlist("t")
    bd = NetlistBuilder(n)
    d = bd.input_word("d", 4)
    en = n.add_input("en")
    q = bd.register(d, enable=en, name="r")
    bd.output_word("q", q)
    load = {"d[0]": 1, "d[1]": 1, "d[2]": 0, "d[3]": 0, "en": 1}
    hold = {"d[0]": 0, "d[1]": 0, "d[2]": 1, "d[3]": 1, "en": 0}
    _, out, again = replay_outputs(n, [load, hold, hold])
    assert read_word(out, "q", 4, 0) == 0b0011  # held despite new data
    assert read_word(again, "q", 4, 0) == 0b0011


def test_counter_counts():
    n = Netlist("t")
    bd = NetlistBuilder(n)
    q = bd.counter(5, name="c")
    bd.output_word("q", q)
    seen = [read_word(out, "q", 5, 0) for out in replay_outputs(n, [{}] * 6)]
    assert seen == [0, 1, 2, 3, 4, 5]


def test_width_mismatch_raises():
    n = Netlist("t")
    bd = NetlistBuilder(n)
    a = bd.input_word("a", 3)
    b = bd.input_word("b", 4)
    with pytest.raises(NetlistError):
        bd.and_word(a, b)

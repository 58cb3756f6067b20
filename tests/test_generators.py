"""Benchmark generators: calibration to Table 1 and golden functionality."""

import random

import pytest

from repro.generators import PAPER_DESIGNS, build_design, paper_design_names
from repro.generators.alu import reference_alu
from repro.generators.des import (
    PC1,
    _permute_int,
    make_des,
    reference_des,
)
from repro.generators.hamming import (
    N_CHECK,
    N_DATA,
    encode_check_bits,
    reference_correct,
)
from repro.generators.parity import reference_9sym_value
from repro.netlist import check_netlist
from repro.netlist.simulate import replay_outputs
from tests.conftest import comb_outputs

SMALL = ["9sym", "styr", "sand", "c499", "planet1", "c880", "s9234"]


@pytest.mark.parametrize("name", SMALL)
def test_calibration_within_15pct(name):
    bundle = build_design(name)
    deviation = abs(bundle.n_clbs - bundle.paper_clbs) / bundle.paper_clbs
    assert deviation <= 0.15, (
        f"{name}: {bundle.n_clbs} vs paper {bundle.paper_clbs}"
    )


@pytest.mark.parametrize("name", SMALL)
def test_netlists_validate(name):
    bundle = build_design(name)
    check_netlist(bundle.netlist)
    check_netlist(bundle.mapped)


def test_design_registry_complete():
    assert set(paper_design_names()) == set(PAPER_DESIGNS)
    assert len(PAPER_DESIGNS) == 9


def test_unknown_design_rejected():
    from repro.errors import ReproError

    with pytest.raises(ReproError):
        build_design("z80")


def test_9sym_function():
    bundle = build_design("9sym")
    rng = random.Random(5)
    W = 64
    xs = [rng.getrandbits(W) for _ in range(9)]
    ins = {}
    for pi in bundle.netlist.primary_inputs():
        name = pi.name.split(":", 1)[-1]
        ins[name] = 0
    for i in range(9):
        ins[f"x0[{i}]"] = xs[i]
    out = comb_outputs(bundle.netlist, ins, W)
    for p in range(W):
        bits = [(xs[i] >> p) & 1 for i in range(9)]
        assert (out["f0"] >> p) & 1 == reference_9sym_value(bits)


def test_c499_corrects_all_single_errors():
    bundle = build_design("c499")
    data = 0xDEADBEEF
    check = encode_check_bits(data)
    for flip in range(N_DATA):
        rx = data ^ (1 << flip)
        ins = {f"d[{i}]": (rx >> i) & 1 for i in range(N_DATA)}
        ins |= {f"c[{j}]": (check >> j) & 1 for j in range(N_CHECK)}
        ins["en"] = 1
        out = comb_outputs(bundle.netlist, ins, 1)
        got = sum((out[f"q[{i}]"] & 1) << i for i in range(N_DATA))
        assert got == data == reference_correct(rx, check)


def test_c499_clean_word_untouched():
    bundle = build_design("c499")
    data = 0x12345678
    check = encode_check_bits(data)
    ins = {f"d[{i}]": (data >> i) & 1 for i in range(N_DATA)}
    ins |= {f"c[{j}]": (check >> j) & 1 for j in range(N_CHECK)}
    ins["en"] = 1
    out = comb_outputs(bundle.netlist, ins, 1)
    got = sum((out[f"q[{i}]"] & 1) << i for i in range(N_DATA))
    assert got == data
    assert out["err"] == 0


def test_c880_alu_against_reference():
    bundle = build_design("c880")
    rng = random.Random(2)
    width = 10
    for op in range(8):
        a = rng.getrandbits(width)
        b = rng.getrandbits(width)
        ins = {"cin": 0}
        ins |= {f"op[{i}]": (op >> i) & 1 for i in range(3)}
        ins |= {f"a0[{i}]": (a >> i) & 1 for i in range(width)}
        ins |= {f"b0[{i}]": (b >> i) & 1 for i in range(width)}
        # second slice inputs: zeros
        ins |= {f"a1[{i}]": 0 for i in range(width)}
        ins |= {f"b1[{i}]": 0 for i in range(width)}
        out = comb_outputs(bundle.netlist, ins, 1)
        got = sum((out[f"r0[{i}]"] & 1) << i for i in range(width))
        want, _ = reference_alu(a, b, op, 0, width)
        assert got == want, f"op={op}"


def test_des_known_answer_fips():
    """Full 16-round DES against the classic FIPS test vector."""
    key56 = _permute_int(0x133457799BBCDFF1, 64, PC1)
    pt = 0x0123456789ABCDEF
    assert reference_des(pt, key56, 16) == 0x85E813540F0AB405

    netlist = make_des("ka", n_rounds=16, pipeline=False)
    ins = {f"pt[{i}]": (pt >> (63 - i)) & 1 for i in range(64)}
    ins |= {f"key[{i}]": (key56 >> (55 - i)) & 1 for i in range(56)}
    out = comb_outputs(netlist, ins, 1)
    ct = 0
    for i in range(64):
        ct = (ct << 1) | (out[f"ct[{i}]"] & 1)
    assert ct == 0x85E813540F0AB405


def test_des_pipelined_matches_reference():
    key56 = _permute_int(0xAABB09182736CCDD, 64, PC1)
    pt = 0x123456ABCD132536
    netlist = make_des("pipe", n_rounds=5, pipeline=True)
    ins = {f"pt[{i}]": (pt >> (63 - i)) & 1 for i in range(64)}
    ins |= {f"key[{i}]": (key56 >> (55 - i)) & 1 for i in range(56)}
    out = replay_outputs(netlist, [ins] * 5)[-1]
    ct = 0
    for i in range(64):
        ct = (ct << 1) | (out[f"ct[{i}]"] & 1)
    assert ct == reference_des(pt, key56, 5)


def test_mips_executes_addi_and_branch():
    from repro.generators.mips import make_mips

    netlist = make_mips(width=8, n_regs=4)
    check_netlist(netlist)

    def fetch(instr, mem=0):
        ins = {f"instr[{i}]": (instr >> i) & 1 for i in range(32)}
        ins |= {f"mem_rdata[{i}]": (mem >> i) & 1 for i in range(8)}
        return ins

    def pc_of(out):
        return sum((out[f"pc_out[{i}]"] & 1) << i for i in range(8))

    # addi $1, $0, 5  (opcode 001000, rs=0, rt=1, imm=5)
    addi = (0b001000 << 26) | (0 << 21) | (1 << 16) | 5
    # store $1 to observe it: sw $1, 0($0) -> mem_wdata = reg1
    sw = (0b101011 << 26) | (0 << 21) | (1 << 16) | 0
    # beq $0, $0, +3 -> branch taken: pc = pc+4 + 3*4
    beq = (0b000100 << 26) | (0 << 21) | (0 << 16) | 3
    program = [fetch(instr) for instr in (addi, sw, beq, addi)]
    at_addi, at_sw, at_beq, after_beq = replay_outputs(netlist, program)
    assert pc_of(at_addi) == 0
    assert pc_of(at_sw) == 4  # PC advanced
    wdata = sum((at_sw[f"mem_wdata[{i}]"] & 1) << i for i in range(8))
    assert wdata == 5
    assert at_sw["mem_write"] == 1
    assert pc_of(after_beq) == pc_of(at_beq) + 4 + 12

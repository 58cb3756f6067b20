"""MIPS R2000 single-cycle core (the paper's 900-CLB "real world" design).

A structural single-cycle MIPS datapath in the style of the BYU FPGA
core the paper used: program counter with incrementer and branch adder,
register file with two read ports and one write port, sign extension,
a full ALU, and the main/ALU control decoders.  Instruction and data
memories live off-chip (their buses are primary IOs), as they did on
the emulation boards of the era.

Calibration: a 32-bit datapath with a 16-entry register
file packs to roughly the paper's 900 XC4000 CLBs on our mapper; the
registry asserts the footprint within ±15 %.
"""

from __future__ import annotations

from repro.netlist.builder import NetlistBuilder, Word
from repro.netlist.core import Netlist

#: opcode values (subset of the R2000 ISA used by the control decoder)
OPCODES = {
    "RTYPE": 0b000000,
    "LW": 0b100011,
    "SW": 0b101011,
    "BEQ": 0b000100,
    "ADDI": 0b001000,
}


def make_mips(
    name: str = "mips_r2000",
    width: int = 32,
    n_regs: int = 16,
    seed: int = 0,
) -> Netlist:
    """Single-cycle MIPS datapath; returns the flat netlist.

    Primary inputs: ``instr`` (32-bit instruction bus from off-chip
    IMEM), ``mem_rdata`` (DMEM read bus).  Primary outputs: ``pc``,
    ``mem_addr``, ``mem_wdata``, ``mem_write``.
    """
    netlist = Netlist(name)
    b = NetlistBuilder(netlist)
    regbits = (n_regs - 1).bit_length()

    instr = b.input_word("instr", 32)
    mem_rdata = b.input_word("mem_rdata", width)

    # instruction fields (R2000 encoding)
    opcode = instr[26:32]
    rs = instr[21:26][:regbits]
    rt = instr[16:21][:regbits]
    rd = instr[11:16][:regbits]
    funct = instr[0:6]
    imm16 = instr[0:16]

    # ---------------- control ----------------
    is_op = {
        mnem: b.equals(opcode, b.const_word(code, 6))
        for mnem, code in OPCODES.items()
    }
    reg_write = b.or_(is_op["RTYPE"], is_op["LW"], is_op["ADDI"])
    alu_src_imm = b.or_(is_op["LW"], is_op["SW"], is_op["ADDI"])
    mem_to_reg = is_op["LW"]
    mem_write = is_op["SW"]
    reg_dst_rd = is_op["RTYPE"]
    branch = is_op["BEQ"]

    # ALU control: funct-driven for R-type, else add/sub
    funct_add = b.equals(funct, b.const_word(0b100000, 6))
    funct_sub = b.equals(funct, b.const_word(0b100010, 6))
    funct_and = b.equals(funct, b.const_word(0b100100, 6))
    funct_or = b.equals(funct, b.const_word(0b100101, 6))
    funct_slt = b.equals(funct, b.const_word(0b101010, 6))

    # ---------------- program counter ----------------
    pc_next_nets = [netlist.add_net(f"pc_next[{i}]") for i in range(width)]
    pc = b.register(pc_next_nets, name="pc")

    pc_plus4 = b.incrementer(pc, amount=4)

    # sign extension (shared by branch target and ALU immediate); narrow
    # datapaths truncate the immediate instead
    sign = imm16[15]
    if width >= 16:
        imm_ext: Word = list(imm16) + [sign] * (width - 16)
    else:
        imm_ext = list(imm16[:width])
    branch_offset = imm_ext[:-2]
    branch_offset = [b.const_bit(0), b.const_bit(0)] + branch_offset
    branch_target, _ = b.adder(pc_plus4, branch_offset)

    # ---------------- register file ----------------
    write_data_nets = [netlist.add_net(f"wb[{i}]") for i in range(width)]
    write_reg = b.mux_word(reg_dst_rd, rt, rd)
    write_onehot = b.decoder(write_reg, enable=reg_write)

    reg_q: list[Word] = []
    for r in range(n_regs):
        if r == 0:
            reg_q.append(b.const_word(0, width))  # $zero is hardwired
            continue
        enable = write_onehot[r]
        reg_q.append(
            b.register(write_data_nets, enable=enable, name=f"rf{r}")
        )
    read1 = b.mux_tree(rs, reg_q)
    read2 = b.mux_tree(rt, reg_q)

    # ---------------- ALU ----------------
    alu_b = b.mux_word(alu_src_imm, read2, imm_ext)
    add_res, _ = b.adder(read1, alu_b)
    sub_res, sub_carry = b.subtractor(read1, alu_b)
    and_res = b.and_word(read1, alu_b)
    or_res = b.or_word(read1, alu_b)
    # slt: sign of (a-b) corrected for overflow is approximated by the
    # borrow flag (unsigned) — sufficient for the structural benchmark
    slt_res = [b.not_(sub_carry)] + [b.const_bit(0)] * (width - 1)

    use_sub = b.or_(b.and_(is_op["RTYPE"], funct_sub), branch)
    use_and = b.and_(is_op["RTYPE"], funct_and)
    use_or = b.and_(is_op["RTYPE"], funct_or)
    use_slt = b.and_(is_op["RTYPE"], funct_slt)

    alu_out = add_res
    alu_out = b.mux_word(use_sub, alu_out, sub_res)
    alu_out = b.mux_word(use_and, alu_out, and_res)
    alu_out = b.mux_word(use_or, alu_out, or_res)
    alu_out = b.mux_word(use_slt, alu_out, slt_res)
    alu_zero = b.is_zero(alu_out)

    # ---------------- write-back and next PC ----------------
    writeback = b.mux_word(mem_to_reg, alu_out, mem_rdata)
    for i in range(width):
        netlist.transfer_sinks(write_data_nets[i], writeback[i],
                               keep=lambda inst, idx: False)
    # transfer_sinks moved the register-file loads onto the writeback
    # nets; the placeholder nets are now dangling.
    netlist.prune_dangling()

    take_branch = b.and_(branch, alu_zero)
    pc_next = b.mux_word(take_branch, pc_plus4, branch_target)
    for i in range(width):
        netlist.transfer_sinks(pc_next_nets[i], pc_next[i],
                               keep=lambda inst, idx: False)
    netlist.prune_dangling()

    # ---------------- external buses ----------------
    b.output_word("pc_out", pc)
    b.output_word("mem_addr", alu_out)
    b.output_word("mem_wdata", read2)
    netlist.add_output("mem_write", mem_write)
    netlist.add_output("branch_taken", take_branch)
    return netlist


"""FlexiCore4 and FlexiCore8: the fabricated base ISAs (Figure 2).

FlexiCore4 (Figure 2a) has nine instructions over four formats, all one
byte wide:

========  ==================  =========================================
Format    Encoding            Semantics
========  ==================  =========================================
Branch    ``1ttttttt``        if acc MSB set: PC <- target
I-Type    ``01ooiiii``        acc <- acc op imm4   (op: add/nand/xor)
M-Type    ``00oo0aaa``        acc <- acc op mem[a] (op: add/nand/xor)
T-Type    ``0111taaa``        t=0: acc <- mem[a];  t=1: mem[a] <- acc
========  ==================  =========================================

The T-Type occupies the I-Type's fourth opcode slot (op = 11), consistent
with the paper's statement that instruction bits 5:4 drive the ALU output
mux and bit 6 selects the immediate-vs-memory operand.  Data addresses 0
and 1 are the memory-mapped IPORT and OPORT.

The state is a 4-bit accumulator, a 7-bit PC and eight 4-bit memory words;
there is no architected carry flag, no stack, and no other register --
which is exactly why the fabricated core needs only 336 gates.

FlexiCore8 (Figure 2b) is the same ISA widened to an 8-bit datapath, with
two differences driven by the <800-NAND2 area budget:

- the data memory is halved to four octets, so memory addresses are two
  bits and the third address bit of the M- and T-Types is reserved, and
- a two-byte LOAD BYTE instruction (opcode byte ``0000_1000``) loads a
  full 8-bit immediate, because the I-Type's 4-bit immediate can no longer
  materialize every constant.

LOAD BYTE is the only stateful part of the decoder: recognizing the opcode
sets a 'load byte' flag indicating the next fetched byte is data, not an
instruction (Section 3.4) -- the single flip-flop of FlexiCore8's
controller.  I-Type immediates are sign-extended to 8 bits (the hardware
simply wires bit 3 across the upper nibble), which preserves the base
ISA's ``addi -3`` and ``nandi 0`` idioms.

Both are one class: :class:`FlexiCore8` sets the three parameters the
netlist builder takes (datapath width, memory words, LOAD BYTE), and the
address mask, the decode holes, the immediate's sign extension and LOAD
BYTE follow from them.
"""

from repro.isa import bits
from repro.isa.errors import DecodeError
from repro.isa.model import (
    ISA,
    DecodedInstruction,
    InstrClass,
    InstructionSpec,
    decode_helper,
    imm_operand,
    memaddr_operand,
    target_operand,
)

# ALU opcode values shared by the I- and M-Type formats.
OP_ADD = 0b00
OP_NAND = 0b01
OP_XOR = 0b10
OP_TRANSFER = 0b11  # T-Type escape in the I-Type space

_ALU_OPS = {OP_ADD: "add", OP_NAND: "nand", OP_XOR: "xor"}

#: Width of the I-Type immediate field.
IMM_BITS = 4

#: The LOAD BYTE opcode byte of Figure 2b.
LOAD_BYTE_OPCODE = 0b0000_1000


def alu_result(op, a, b, width):
    """The FlexiCore ALU of Figure 3b.

    A single ripple-carry adder computes the sum; AND and XOR fall out of
    the same adder as side effects, and NAND costs four extra inverters.
    Returns (result, carry_out); the base ISA discards the carry.
    """
    if op == OP_ADD:
        return bits.add_with_carry(a, b, 0, width)
    if op == OP_NAND:
        return bits.truncate(~(a & b), width), 0
    if op == OP_XOR:
        return bits.truncate(a ^ b, width), 0
    raise ValueError(f"not an ALU op: {op}")


class FlexiCore4(ISA):
    """The fabricated 4-bit FlexiCore ISA."""

    name = "flexicore4"
    word_bits = 4
    mem_words = 8
    pc_bits = 7
    fetch_bits = 8
    accumulator = True
    #: Whether the decoder has FlexiCore8's two-byte LOAD BYTE.
    load_byte = False

    def __init__(self):
        # Computed once, since decode runs on every simulated step: the
        # data-address bits, and the reserved bits of the T-Type (address
        # bits above the memory) and of the M-Type (those and bit 3).
        self._addr_mask = self.mem_words - 1
        self._ttype_holes = 0b111 & ~self._addr_mask
        self._mtype_holes = 0b1000 | self._ttype_holes
        super().__init__()

    # -- instruction definitions -----------------------------------------

    def _define_instructions(self):
        width = self.word_bits
        addr_mask = self._addr_mask

        def make_imm_exec(op):
            def execute(state, operands):
                imm = bits.truncate(operands[0], width)
                result, _ = alu_result(op, state.acc, imm, width)
                state.set_acc(result)
                state.advance_pc(1)
            return execute

        def make_sext_imm_exec(op):
            def execute(state, operands):
                imm = bits.truncate(
                    bits.sign_extend(operands[0], IMM_BITS), width
                )
                result, _ = alu_result(op, state.acc, imm, width)
                state.set_acc(result)
                state.advance_pc(1)
            return execute

        def make_mem_exec(op):
            def execute(state, operands):
                value = state.read_mem(operands[0])
                result, _ = alu_result(op, state.acc, value, width)
                state.set_acc(result)
                state.advance_pc(1)
            return execute

        if width > IMM_BITS:
            imm_exec, imm_text = make_sext_imm_exec, "sext(imm4)"
        else:
            imm_exec, imm_text = make_imm_exec, "imm4"
        for op, base in _ALU_OPS.items():
            self._add(InstructionSpec(
                mnemonic=base + "i",
                operands=(imm_operand(width=IMM_BITS),),
                size=1,
                encode_fn=self._make_imm_encoder(op),
                execute_fn=imm_exec(op),
                iclass=InstrClass.ALU,
                description=f"acc <- acc {base} {imm_text}",
            ))
            self._add(InstructionSpec(
                mnemonic=base,
                operands=(memaddr_operand(self.mem_words),),
                size=1,
                encode_fn=self._make_mem_encoder(op),
                execute_fn=make_mem_exec(op),
                iclass=InstrClass.ALU,
                description=f"acc <- acc {base} mem[addr]",
            ))

        def exec_load(state, operands):
            state.set_acc(state.read_mem(operands[0]))
            state.advance_pc(1)

        def exec_store(state, operands):
            state.write_mem(operands[0], state.acc)
            state.advance_pc(1)

        self._add(InstructionSpec(
            mnemonic="load",
            operands=(memaddr_operand(self.mem_words),),
            size=1,
            encode_fn=lambda ops: bytes([0b0111_0000 | (ops[0] & addr_mask)]),
            execute_fn=exec_load,
            iclass=InstrClass.MEMORY,
            description="acc <- mem[addr] (addr 0 reads IPORT)",
        ))
        self._add(InstructionSpec(
            mnemonic="store",
            operands=(memaddr_operand(self.mem_words),),
            size=1,
            encode_fn=lambda ops: bytes([0b0111_1000 | (ops[0] & addr_mask)]),
            execute_fn=exec_store,
            iclass=InstrClass.MEMORY,
            description="mem[addr] <- acc (addr 1 drives OPORT)",
        ))

        def exec_brn(state, operands):
            if state.acc_negative():
                state.branch_to(operands[0])
            else:
                state.advance_pc(1)

        self._add(InstructionSpec(
            mnemonic="brn",
            operands=(target_operand(self.pc_bits),),
            size=1,
            encode_fn=lambda ops: bytes([0b1000_0000 | (ops[0] & 0x7F)]),
            execute_fn=exec_brn,
            iclass=InstrClass.BRANCH,
            description="if acc MSB: PC <- target",
        ))
        if not self.load_byte:
            return

        def exec_ldb(state, operands):
            # The decoder flag is architecturally visible for exactly one
            # cycle; the functional model folds both cycles into one step.
            state.load_byte_pending = True
            state.set_acc(operands[0])
            state.load_byte_pending = False
            state.advance_pc(2)

        self._add(InstructionSpec(
            mnemonic="ldb",
            operands=(imm_operand(name=f"imm{width}", width=width,
                                  signed=True),),
            size=2,
            encode_fn=lambda ops: bytes(
                [LOAD_BYTE_OPCODE, bits.truncate(ops[0], width)]
            ),
            execute_fn=exec_ldb,
            iclass=InstrClass.ALU,
            feature=None,
            description="acc <- imm8 (two-byte LOAD BYTE, Figure 2b)",
        ))

    def _make_imm_encoder(self, op):
        def encode(operands):
            imm = bits.truncate(operands[0], IMM_BITS)
            return bytes([0b0100_0000 | (op << 4) | imm])
        return encode

    def _make_mem_encoder(self, op):
        addr_mask = self._addr_mask

        def encode(operands):
            return bytes([(op << 4) | (operands[0] & addr_mask)])
        return encode

    # -- decoding ---------------------------------------------------------

    def decode(self, code, offset=0):
        raw = decode_helper(code, offset, 1, self.name)
        byte = raw[0]
        if byte & 0x80:  # Branch
            spec, ops = self.specs["brn"], (byte & 0x7F,)
        elif byte & 0x40:  # I-Type / T-Type
            op = (byte >> 4) & 0b11
            if op != OP_TRANSFER:
                spec, ops = self.specs[_ALU_OPS[op] + "i"], (byte & 0x0F,)
            elif byte & self._ttype_holes:
                raise self._undefined(byte)
            else:
                mnem = "store" if byte & 0b1000 else "load"
                spec, ops = self.specs[mnem], (byte & self._addr_mask,)
        else:  # M-Type
            op = (byte >> 4) & 0b11
            if op == OP_TRANSFER or byte & self._mtype_holes:
                if self.load_byte and byte == LOAD_BYTE_OPCODE:
                    raw = decode_helper(code, offset, 2, self.name)
                    return DecodedInstruction(
                        spec=self.specs["ldb"], operands=(raw[1],),
                        address=offset, raw=raw,
                    )
                raise self._undefined(byte)
            spec, ops = self.specs[_ALU_OPS[op]], (byte & self._addr_mask,)
        return DecodedInstruction(spec=spec, operands=ops, address=offset, raw=raw)

    def _undefined(self, byte):
        return DecodeError(f"{self.name}: undefined opcode byte {byte:#04x}")


class FlexiCore8(FlexiCore4):
    """The fabricated 8-bit FlexiCore ISA."""

    name = "flexicore8"
    word_bits = 8
    mem_words = 4
    load_byte = True

"""FlexiCore8 ISA: 8-bit datapath, 4-word memory, LOAD BYTE (Fig. 2b)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.isa import DecodeError, OperandRangeError, get_isa
from repro.isa.flexicore4 import LOAD_BYTE_OPCODE

ISA = get_isa("flexicore8")


def execute(mnemonic, operands, acc=0, mem=None):
    state = ISA.new_state()
    state.acc = acc
    if mem:
        for addr, value in mem.items():
            state.mem[addr] = value
    decoded = ISA.decode(ISA.encode(mnemonic, operands))
    ISA.execute(state, decoded)
    return state


class TestShape:
    def test_datapath_and_memory(self):
        assert ISA.word_bits == 8
        assert ISA.mem_words == 4

    def test_has_all_flexicore4_instructions_plus_ldb(self):
        fc4 = set(get_isa("flexicore4").mnemonics())
        fc8 = set(ISA.mnemonics())
        assert fc8 == fc4 | {"ldb"}

    def test_memory_address_is_two_bits(self):
        with pytest.raises(OperandRangeError):
            ISA.encode("load", (4,))


class TestLoadByte:
    def test_opcode_byte_matches_figure_2b(self):
        assert LOAD_BYTE_OPCODE == 0b0000_1000
        assert ISA.encode("ldb", (0xAB,)) == bytes([0x08, 0xAB])

    def test_ldb_is_two_bytes(self):
        assert ISA.spec("ldb").size == 2

    @given(st.integers(0, 255))
    def test_ldb_loads_full_byte(self, value):
        state = execute("ldb", (value,))
        assert state.acc == value
        assert state.pc == 2  # consumed opcode + data byte

    def test_ldb_decode_consumes_data_byte(self):
        code = bytes([LOAD_BYTE_OPCODE, 0x5A])
        decoded = ISA.decode(code)
        assert decoded.mnemonic == "ldb"
        assert decoded.operands == (0x5A,)
        assert decoded.size == 2

    def test_decoder_flag_cleared_after_execution(self):
        state = execute("ldb", (1,))
        assert state.load_byte_pending is False


class TestSignExtension:
    """I-type immediates sign-extend across the 8-bit datapath."""

    def test_addi_negative(self):
        state = execute("addi", (-3,), acc=10)
        assert state.acc == 7

    def test_nandi_zero_yields_all_ones(self):
        # The 'nandi 0' constant idiom must still produce -1.
        state = execute("nandi", (0,), acc=0x5A)
        assert state.acc == 0xFF

    def test_nandi_minus_one_is_full_not(self):
        state = execute("nandi", (0xF,), acc=0x5A)
        assert state.acc == (~0x5A) & 0xFF

    @given(st.integers(0, 255), st.integers(-8, 7))
    def test_addi_matches_signed_arithmetic(self, acc, imm):
        state = execute("addi", (imm,), acc=acc)
        assert state.acc == (acc + imm) & 0xFF


class TestSemantics:
    @given(st.integers(0, 255), st.integers(0, 255))
    def test_memory_ops_full_width(self, acc, value):
        state = execute("add", (2,), acc=acc, mem={2: value})
        assert state.acc == (acc + value) & 0xFF
        state = execute("xor", (2,), acc=acc, mem={2: value})
        assert state.acc == acc ^ value

    @given(st.integers(0, 255))
    def test_branch_tests_bit7(self, acc):
        state = execute("brn", (5,), acc=acc)
        assert (state.pc == 5) == bool(acc & 0x80)

    def test_undefined_mtype_hole_raises(self):
        with pytest.raises(DecodeError):
            ISA.decode(bytes([0b0000_0100]))  # M-type with bit2 set


class TestDecode:
    def test_exhaustive_byte_space(self):
        """Every byte decodes and re-encodes to itself, is LOAD BYTE over
        the next byte, or is a documented hole: an M-Type byte with
        op=11 or bit 3 or 2 set, or a T-Type byte with bit 2 set (the
        address bit the four-word memory does not have)."""
        def documented_hole(byte):
            if byte & 0xC0 == 0:  # M-Type
                return bool(byte & 0b1100) or (byte >> 4) & 0b11 == 0b11
            return byte & 0xF0 == 0b0111_0000 and bool(byte & 0b100)

        holes = set()
        for byte in range(256):
            try:
                decoded = ISA.decode(bytes([byte, 0xA5]))
            except DecodeError:
                holes.add(byte)
                continue
            if byte == LOAD_BYTE_OPCODE:
                assert decoded.mnemonic == "ldb"
                assert decoded.operands == (0xA5,)
                assert decoded.raw == bytes([byte, 0xA5])
            else:
                assert decoded.size == 1
                assert decoded.spec.encode(decoded.operands) == bytes([byte])
        assert holes == {byte for byte in range(256)
                         if documented_hole(byte)} - {LOAD_BYTE_OPCODE}

    def test_truncated_load_byte_raises(self):
        with pytest.raises(DecodeError, match="truncated"):
            ISA.decode(bytes([LOAD_BYTE_OPCODE]))

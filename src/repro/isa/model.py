"""Declarative instruction-set model.

Every FlexiCore-family ISA is expressed as a set of
:class:`InstructionSpec` objects.  A spec bundles

- the assembly *mnemonic* and its operand signature,
- an *encode* function producing the instruction bytes,
- an *execute* function implementing the semantics against a
  :class:`repro.isa.state.CoreState`, and
- classification metadata (instruction class, hardware features required)
  used by the code-size and design-space-exploration analyses.

The assembler, disassembler, functional simulator and DSE models all drive
off this single description, so an ISA variant is defined exactly once.
"""

import enum
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

from repro.isa import bits
from repro.isa.errors import DecodeError, EncodeError, OperandRangeError


class OperandKind(enum.Enum):
    """What an instruction operand denotes, for parsing and validation."""

    IMM = "imm"          # immediate literal (width set per-spec)
    MEMADDR = "memaddr"  # data-memory address
    TARGET = "target"    # branch/call target (program address, page-local)
    SHAMT = "shamt"      # shift amount
    REG = "reg"          # register index (load-store ISA)
    MASK = "mask"        # nzp branch-condition mask


class InstrClass(enum.Enum):
    """Coarse classification used by statistics and the DSE models."""

    ALU = "alu"
    MEMORY = "memory"
    BRANCH = "branch"
    CONTROL = "control"   # call/ret/nop/halt
    IO = "io"             # explicit IN/OUT (load-store ISA only)


@dataclass(frozen=True)
class OperandSpec:
    """One operand slot: its kind, valid range, and signedness."""

    kind: OperandKind
    name: str
    lo: int
    hi: int
    signed: bool = False

    def validate(self, mnemonic, value):
        if not isinstance(value, int):
            raise EncodeError(
                f"{mnemonic}: operand '{self.name}' must be an int, "
                f"got {value!r}"
            )
        if not self.lo <= value <= self.hi:
            raise OperandRangeError(mnemonic, self.name, value, self.lo, self.hi)


@dataclass(frozen=True)
class InstructionSpec:
    """Complete description of one instruction."""

    mnemonic: str
    operands: Tuple[OperandSpec, ...]
    size: int  # size in instruction-memory bytes
    encode_fn: Callable[[Tuple[int, ...]], bytes]
    execute_fn: Callable[..., None]  # (state, operands) -> None
    iclass: InstrClass
    #: DSE feature this instruction requires (None = base hardware).
    feature: Optional[str] = None
    description: str = ""

    def encode(self, operands):
        if len(operands) != len(self.operands):
            raise EncodeError(
                f"{self.mnemonic}: expected {len(self.operands)} operands, "
                f"got {len(operands)}"
            )
        canonical = []
        for spec, value in zip(self.operands, operands):
            spec.validate(self.mnemonic, value)
            canonical.append(value)
        return self.encode_fn(tuple(canonical))


@dataclass(frozen=True)
class DecodedInstruction:
    """Result of decoding instruction bytes at one program address."""

    spec: InstructionSpec
    operands: Tuple[int, ...]
    address: int  # page-local byte address of the first byte
    raw: bytes

    @property
    def mnemonic(self):
        return self.spec.mnemonic

    @property
    def size(self):
        return self.spec.size

    def text(self):
        """Render as assembly text."""
        if not self.operands:
            return self.mnemonic
        rendered = []
        for spec, value in zip(self.spec.operands, self.operands):
            rendered.append(str(value))
        return f"{self.mnemonic} " + ", ".join(rendered)


def imm_operand(name="imm", width=4, signed=True):
    """Immediate operand accepting the signed *or* unsigned encodings of a
    ``width``-bit field (e.g. ``addi -3`` and ``addi 13`` both assemble)."""
    return OperandSpec(
        OperandKind.IMM, name,
        lo=-(1 << (width - 1)) if signed else 0,
        hi=bits.mask(width),
        signed=signed,
    )


def memaddr_operand(words, name="addr"):
    return OperandSpec(OperandKind.MEMADDR, name, lo=0, hi=words - 1)


def target_operand(pc_bits=7, name="target"):
    return OperandSpec(OperandKind.TARGET, name, lo=0, hi=bits.mask(pc_bits))


def shamt_operand(hi, name="shamt"):
    return OperandSpec(OperandKind.SHAMT, name, lo=1, hi=hi)


def reg_operand(count, name="reg"):
    return OperandSpec(OperandKind.REG, name, lo=0, hi=count - 1)


def mask_operand(name="mask"):
    return OperandSpec(OperandKind.MASK, name, lo=1, hi=7)


class ISA:
    """An instruction-set architecture: a named set of instruction specs.

    Subclasses populate :attr:`specs` and set the machine parameters used
    to size :class:`~repro.isa.state.CoreState`.
    """

    #: Unique registry name, e.g. ``"flexicore4"``.
    name = "abstract"
    #: Datapath width in bits.
    word_bits = 4
    #: Data-memory words (register count for the load-store ISA).
    mem_words = 8
    #: Program-counter width; all FlexiCores use 7 (128-byte pages).
    pc_bits = 7
    #: Width of the program-memory bus needed to fetch one unit per cycle.
    fetch_bits = 8
    #: True for accumulator ISAs (single-operand instructions).
    accumulator = True

    def __init__(self):
        self.specs: Dict[str, InstructionSpec] = {}
        self._define_instructions()

    # -- subclass hook --------------------------------------------------

    def _define_instructions(self):
        raise NotImplementedError

    def _add(self, spec):
        if spec.mnemonic in self.specs:
            raise ValueError(f"duplicate mnemonic {spec.mnemonic}")
        self.specs[spec.mnemonic] = spec

    # -- public API ------------------------------------------------------

    def mnemonics(self):
        return sorted(self.specs)

    def spec(self, mnemonic):
        try:
            return self.specs[mnemonic]
        except KeyError:
            raise EncodeError(
                f"{self.name}: unknown mnemonic '{mnemonic}'"
            ) from None

    def has(self, mnemonic):
        return mnemonic in self.specs

    def encode(self, mnemonic, operands=()):
        """Encode one instruction to bytes."""
        return self.spec(mnemonic).encode(tuple(operands))

    def decode(self, code, offset=0):
        """Decode the instruction starting at ``code[offset]``.

        Returns a :class:`DecodedInstruction`.  Raises :class:`DecodeError`
        for byte patterns no instruction produces.
        """
        raise NotImplementedError

    def execute(self, state, decoded):
        """Run one decoded instruction's semantics.

        The execute function is responsible for updating the PC (semantics
        first call :meth:`CoreState.advance_pc` with the instruction size,
        then branches overwrite it).
        """
        decoded.spec.execute_fn(state, decoded.operands)

    def new_state(self):
        from repro.isa.state import CoreState

        return CoreState(
            width=self.word_bits,
            mem_words=self.mem_words,
            pc_bits=self.pc_bits,
        )

    def __repr__(self):
        return f"<ISA {self.name}: {len(self.specs)} instructions>"


def decode_helper(code, offset, size, name):
    """Slice ``size`` bytes at ``offset``, raising DecodeError on overrun."""
    if offset + size > len(code):
        raise DecodeError(
            f"{name}: truncated instruction at offset {offset}"
        )
    return bytes(code[offset:offset + size])

"""Instruction-set architectures of the FlexiCore family.

This package defines, as data plus small semantic functions, every ISA the
paper fabricates or explores:

- :mod:`repro.isa.flexicore4` -- the fabricated base ISAs: FlexiCore4
  (Figure 2a) and FlexiCore8 (Figure 2b), one class whose 8-bit subclass
  sets the datapath width, the memory size and LOAD BYTE.
- :mod:`repro.isa.extended`   -- the feature-gated extended accumulator ISA
  of Section 6.1 (FlexiCore4+ and the "revised" operation set).
- :mod:`repro.isa.loadstore`  -- the two-operand load-store ISA of
  Section 6.2.

Use :func:`repro.isa.registry.get_isa` to look an ISA up by name.
"""

from repro.isa.model import (
    ISA,
    DecodedInstruction,
    InstructionSpec,
    OperandKind,
    OperandSpec,
)
from repro.isa.state import CoreState
from repro.isa.errors import (
    DecodeError,
    EncodeError,
    IsaError,
    OperandRangeError,
)
from repro.isa.registry import available_isas, get_isa

__all__ = [
    "ISA",
    "CoreState",
    "DecodedInstruction",
    "DecodeError",
    "EncodeError",
    "InstructionSpec",
    "IsaError",
    "OperandKind",
    "OperandSpec",
    "OperandRangeError",
    "available_isas",
    "get_isa",
]

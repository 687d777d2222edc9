"""Kernel framework: targets, assembly and golden-model checking.

A :class:`Kernel` owns three things:

- a *source generator* producing macro-assembly for an accumulator target
  (and optionally load-store assembly for the Section 6.2 study),
- a *golden reference* implemented in plain Python, used to verify every
  simulated run exactly (the analogue of the paper's RTL-vs-chip test
  comparison), and
- an *input generator* for sweeping/sampling the input space the way
  Section 5.2 does.

A :class:`Target` bundles an ISA with its macro library, so the same
kernel assembles for the base FlexiCore4, any extension subset, and the
load-store machine.

A process assembles each kernel at most once per ISA:
:meth:`Kernel.binary` keeps a :class:`Binary` per (ISA, kernel source),
and :meth:`Kernel.run` and :meth:`Kernel.check` simulate it.
:meth:`Kernel.program` and :meth:`Target.assemble` keep nothing, for
listings and arbitrary source.
"""

import hashlib
from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.asm import Assembler, LayoutError
from repro.kernels.macros import build_library, loadstore_library
from repro.sim import run_program


@dataclass(frozen=True)
class Target:
    """An ISA plus the macro library that papers over its feature gaps."""

    isa: object
    library: object

    @classmethod
    def for_isa(cls, isa):
        if isa.accumulator:
            return cls(isa=isa, library=build_library(isa))
        return cls(isa=isa, library=loadstore_library(isa))

    @classmethod
    def named(cls, isa_name):
        from repro.isa import get_isa

        return cls.for_isa(get_isa(isa_name))

    @property
    def name(self):
        return self.isa.name

    def assemble(self, source, source_name="<kernel>"):
        return Assembler(self.isa, self.library).assemble(source, source_name)


@dataclass(frozen=True)
class Binary:
    """An assembled kernel, reduced to what its callers read.

    No listing, symbols or source locations: about half a kilobyte, so
    a process keeps one per (ISA, kernel) for its whole life.
    """

    isa: object
    image: bytes
    static_instructions: int
    size_bytes: int
    pages: int

    @classmethod
    def of(cls, program):
        return cls(
            isa=program.isa,
            image=program.image(),
            static_instructions=program.static_instructions,
            size_bytes=program.size_bytes,
            pages=len(program.pages),
        )

    @property
    def size_bits(self):
        """Code size in bits, the unit of the Figure 12 comparison."""
        return self.size_bytes * 8


#: {(ISA name, macro-library name, source digest): a Binary, or the
#: message of the LayoutError its assembly raised}.
_BINARIES = {}


def kernel_binary(target, source, source_name):
    """The :class:`Binary` of a kernel ``source`` on ``target``, assembled
    at most once per process.

    Only :class:`Kernel` sources and XorShift8's one-page probe come
    here, which bounds the memo by ISAs x kernels; an ISA name names one
    instruction set, as every registry name does.  A ``LayoutError`` is
    remembered too and raised again on every lookup.
    """
    key = (target.isa.name, target.library.name,
           hashlib.blake2b(source.encode(), digest_size=16).digest())
    binary = _BINARIES.get(key)
    if binary is None:
        # Threads that miss together each assemble and store an equal
        # record, so the race costs work, never a wrong answer.
        try:
            binary = Binary.of(target.assemble(source, source_name))
        except LayoutError as error:
            binary = str(error)
        _BINARIES[key] = binary
    if isinstance(binary, str):
        raise LayoutError(binary)
    return binary


@dataclass
class Kernel:
    """One benchmark of Table 6."""

    name: str
    app_type: str  # 'Interactive' | 'Streaming' | 'Reactive'
    description: str
    source_fn: Callable[[Target], str]
    reference_fn: Callable[[List[int]], List[int]]
    input_fn: Callable[[object, int], List[int]]  # (rng, n) -> samples
    #: Inputs consumed per logical "transaction" (1 for streaming kernels).
    inputs_per_transaction: int = 1
    #: Kernels that cannot run on a given target return None from source_fn.
    loadstore_source_fn: Optional[Callable[[Target], str]] = None

    def source(self, target):
        if target.isa.accumulator:
            return self.source_fn(target)
        if self.loadstore_source_fn is None:
            raise ValueError(
                f"kernel '{self.name}' has no load-store implementation"
            )
        return self.loadstore_source_fn(target)

    def program(self, target):
        """Assemble this kernel for ``target`` (the full listing, anew)."""
        return target.assemble(self.source(target), source_name=self.name)

    def binary(self, target):
        """This kernel's :class:`Binary` for ``target``, assembled once
        per process."""
        return kernel_binary(target, self.source(target), self.name)

    def expected(self, inputs):
        return self.reference_fn(list(inputs))

    def generate_inputs(self, rng, transactions):
        return self.input_fn(rng, transactions)

    def run(self, target, inputs, max_cycles=2_000_000, fastpath=None):
        """Simulate :meth:`binary` on ``inputs``; return (result, outputs).

        The program is driven until it reads past the final sample (the
        idiomatic end for streaming kernels) or halts.  ``fastpath=False``
        forces the reference step loop (the default runs the predecoded
        dispatch, which is bit-identical).
        """
        binary = self.binary(target)
        result, sink = run_program(
            binary.image, isa=binary.isa, inputs=inputs,
            max_cycles=max_cycles, fastpath=fastpath,
        )
        return result, sink.values

    def check(self, target, inputs, max_cycles=2_000_000, fastpath=None):
        """Run and compare against the golden model.

        Returns the :class:`~repro.sim.simulator.RunResult`; raises
        AssertionError with a diff on mismatch.
        """
        result, outputs = self.run(
            target, inputs, max_cycles=max_cycles, fastpath=fastpath,
        )
        expected = self.expected(inputs)
        if outputs != expected:
            raise AssertionError(
                f"{self.name} on {target.name}: output mismatch\n"
                f"  inputs:   {inputs}\n"
                f"  expected: {expected}\n"
                f"  got:      {outputs}"
            )
        return result

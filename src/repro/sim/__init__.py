"""Functional simulation: cores, program memory, MMU, peripherals, timing."""

from repro.sim.dispatch import DISPATCHES, resolve_dispatch
from repro.sim.memory import ProgramMemory
from repro.sim.predecode import (
    PredecodedProgram,
    clear_cache as clear_predecode_cache,
    predecode_image,
)
from repro.sim.mmu import ARM_COUNT, Mmu, PAGE_SWITCH_DELAY
from repro.sim.peripherals import (
    HeldInput,
    InputExhausted,
    InputStream,
    OutputSink,
)
from repro.sim.trace import TraceEntry, Tracer, trace_program
from repro.sim.simulator import (
    ExecStats,
    RunResult,
    SimulationError,
    Simulator,
    run_program,
)
from repro.sim.timing import (
    ExecutionEstimate,
    InfeasibleDesign,
    MicroArch,
    cycle_count,
    cycles_multicycle,
    cycles_pipelined,
    cycles_single_cycle,
    estimate,
    requires_multicycle_fetch,
)

__all__ = [
    "ARM_COUNT",
    "DISPATCHES",
    "ExecStats",
    "ExecutionEstimate",
    "HeldInput",
    "InfeasibleDesign",
    "InputExhausted",
    "InputStream",
    "MicroArch",
    "Mmu",
    "OutputSink",
    "PAGE_SWITCH_DELAY",
    "PredecodedProgram",
    "ProgramMemory",
    "RunResult",
    "SimulationError",
    "Simulator",
    "TraceEntry",
    "Tracer",
    "clear_predecode_cache",
    "cycle_count",
    "predecode_image",
    "resolve_dispatch",
    "trace_program",
    "cycles_multicycle",
    "cycles_pipelined",
    "cycles_single_cycle",
    "estimate",
    "requires_multicycle_fetch",
    "run_program",
]

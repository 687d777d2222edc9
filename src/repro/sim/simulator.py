"""Functional simulator for the FlexiCore family.

The simulator is instruction-accurate: it fetches through the (optional)
MMU, decodes with the ISA's decoder, runs the spec's semantic function and
collects the statistics the evaluation needs (dynamic instruction counts
by class, taken branches, fetched bytes).  Cycle counts for a particular
microarchitecture are derived from these statistics by
:mod:`repro.sim.timing`; for the fabricated single-cycle FlexiCores,
cycles == dynamic instructions == fetched bytes.

Halting.  The base FlexiCore ISA has no halt instruction (streaming
programs run forever), so the simulator recognizes the conventional
"branch to self" idle loop as completion, and also stops on the extended
ISAs' explicit ``halt``, on input-stream exhaustion, or at ``max_cycles``.
"""

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro import obs
from repro.isa.model import InstrClass
from repro.sim.dispatch import resolve_dispatch
from repro.sim.memory import ProgramMemory
from repro.sim.mmu import Mmu
from repro.sim.peripherals import OutputSink


class SimulationError(Exception):
    """The simulated program misbehaved (decode fault, runaway, ...)."""


@dataclass
class ExecStats:
    """Execution statistics accumulated by :class:`Simulator`."""

    instructions: int = 0
    fetched_bytes: int = 0
    taken_branches: int = 0
    by_class: Dict[str, int] = field(default_factory=dict)
    by_mnemonic: Dict[str, int] = field(default_factory=dict)
    by_size: Dict[int, int] = field(default_factory=dict)
    io_reads: int = 0
    io_writes: int = 0
    page_switches: int = 0

    def record(self, decoded, taken=False):
        self.instructions += 1
        self.fetched_bytes += decoded.size
        if taken:
            self.taken_branches += 1
        iclass = decoded.spec.iclass.value
        self.by_class[iclass] = self.by_class.get(iclass, 0) + 1
        self.by_size[decoded.size] = self.by_size.get(decoded.size, 0) + 1
        mnem = decoded.mnemonic
        self.by_mnemonic[mnem] = self.by_mnemonic.get(mnem, 0) + 1

    @property
    def branch_fraction(self):
        if not self.instructions:
            return 0.0
        return self.by_class.get(InstrClass.BRANCH.value, 0) / self.instructions


@dataclass
class RunResult:
    """Outcome of a :meth:`Simulator.run` call."""

    stats: ExecStats
    halted: bool
    reason: str  # 'halt' | 'self_branch' | 'input_exhausted' | 'max_cycles'

    @property
    def instructions(self):
        return self.stats.instructions


class Simulator:
    """Drives one core: ISA + program memory + peripherals.

    Parameters
    ----------
    isa:
        An :class:`repro.isa.model.ISA` instance.
    program:
        A :class:`repro.asm.Program`, a raw bytes image, or a
        :class:`ProgramMemory`.
    input_fn:
        Callable returning input-bus samples (e.g. an
        :class:`~repro.sim.peripherals.InputStream`).
    output:
        An :class:`~repro.sim.peripherals.OutputSink` (or any callable).
    use_mmu:
        Attach the Section 5.1 page-switch MMU.  Enabled automatically
        when the program occupies more than one page.
    halt_on_self_branch:
        Treat a taken branch whose target is its own address as program
        completion (the base-ISA halt idiom).

    Execution paths.  :meth:`run` drives the program through a pluggable
    :mod:`repro.sim.dispatch` strategy -- by default the predecoded fast
    path, which is bit-identical to the reference but decodes each page
    only once.  :meth:`step` is the single-step reference used for
    traces, debugging, and the ``"reference"`` dispatch.
    """

    def __init__(self, isa, program, input_fn=None, output=None,
                 use_mmu=None, halt_on_self_branch=True):
        self.isa = isa
        self.output = output if output is not None else OutputSink()
        if isinstance(program, ProgramMemory):
            self.memory = program
        else:
            image = program if isinstance(program, (bytes, bytearray)) \
                else program.image()
            if use_mmu is None:
                use_mmu = len(image) > 128
            mmu = Mmu(port_width=isa.word_bits) if use_mmu else None
            self.memory = ProgramMemory(image, mmu)
        self.mmu = self.memory.mmu
        self.state = isa.new_state()
        if input_fn is not None:
            self.state.input_fn = input_fn
        if self.mmu is not None:
            self.mmu.attach(self.output)
            self.state.output_fn = self.mmu.observe_output
        else:
            sink = self.output
            self.state.output_fn = (
                sink if callable(sink) else sink.write
            )
        self.halt_on_self_branch = halt_on_self_branch
        self.stats = ExecStats()
        #: Why the last halt happened; per-instance so a stale
        #: "self_branch" can never leak across simulators or resets.
        self._halt_reason = "halt"
        if hasattr(self.output, "bind_clock"):
            self.output.bind_clock(lambda: self.stats.instructions)

    # ------------------------------------------------------------------

    def step(self):
        """Execute one instruction.  Returns the decoded instruction.

        Raises :class:`SimulationError` on decode faults and propagates
        :class:`InputExhausted` from input peripherals.
        """
        state = self.state
        base, window = self.memory.fetch_window(state.pc)
        try:
            decoded = self.isa.decode(window, 0)
        except Exception as exc:
            raise SimulationError(
                f"decode fault at page address {base}: {exc}"
            ) from exc
        pc_before = state.pc
        self.isa.execute(state, decoded)
        taken = (
            decoded.spec.iclass == InstrClass.BRANCH
            and state.pc != ((pc_before + decoded.size) & state.pc_mask)
        )
        self.stats.record(decoded, taken)
        if (
            self.halt_on_self_branch
            and taken
            and state.pc == pc_before
        ):
            state.halted = True
            self._halt_reason = "self_branch"
        elif state.halted:
            self._halt_reason = "halt"
        return decoded

    def run(self, max_cycles=1_000_000, dispatch=None, fastpath=None):
        """Run until the program halts (see class docstring) or the cycle
        budget is exhausted.

        ``dispatch`` selects the execution strategy by name
        (``"predecode"`` / ``"reference"``; ``None`` is
        ``"predecode"``).  ``fastpath`` is boolean sugar: ``False`` forces the
        reference step loop, ``True`` the predecoded fast path.
        """
        if dispatch is None and fastpath is not None:
            dispatch = "predecode" if fastpath else "reference"
        runner = resolve_dispatch(dispatch)
        reason = runner(self, max_cycles)
        if self.mmu is not None:
            self.stats.page_switches = self.mmu.page_switches
        self.stats.io_reads = self.state.io_reads
        self.stats.io_writes = self.state.io_writes
        if obs.active():
            _fold_exec_stats(self.stats, reason)
        return RunResult(
            stats=self.stats,
            halted=self.state.halted,
            reason=reason,
        )

    def reset(self):
        self.state.reset()
        self.stats = ExecStats()
        self._halt_reason = "halt"
        if self.mmu is not None:
            self.mmu.reset()


def _fold_exec_stats(stats, reason):
    """Fold one finished run's statistics into the metrics registry.

    Stats accumulate locally during the (hot) fetch/execute loop; only
    this completion-time fold touches the registry, so a disabled run
    costs one boolean check.
    """
    registry = obs.registry()
    retired = registry.counter(
        "sim_instructions_total",
        "Retired instructions by mnemonic",
    )
    for mnemonic, count in stats.by_mnemonic.items():
        retired.inc(count, mnemonic=mnemonic)
    registry.counter(
        "sim_taken_branches_total", "Taken branches",
    ).inc(stats.taken_branches)
    registry.counter(
        "sim_fetched_bytes_total", "Program bytes fetched",
    ).inc(stats.fetched_bytes)
    registry.counter(
        "sim_page_switches_total", "MMU page switches",
    ).inc(stats.page_switches)
    registry.counter(
        "sim_io_total", "Architectural IO operations by direction",
    ).inc(stats.io_reads, direction="read")
    registry.counter(
        "sim_io_total", "Architectural IO operations by direction",
    ).inc(stats.io_writes, direction="write")
    registry.counter(
        "sim_runs_total", "Simulator runs by completion reason",
    ).inc(reason=reason)


def run_program(program, isa=None, inputs=None, max_cycles=1_000_000,
                on_exhausted="raise", fastpath=None):
    """One-shot helper: run ``program`` and return (RunResult, OutputSink).

    ``inputs`` may be an iterable of samples or a ready-made callable.
    ``fastpath=False`` forces the reference step loop (the default runs
    the predecoded dispatch, which is bit-identical and much faster).
    """
    from repro.sim.peripherals import InputStream

    if isa is None:
        isa = program.isa
    input_fn = None
    if inputs is not None:
        input_fn = (
            inputs if callable(inputs)
            else InputStream(inputs, on_exhausted=on_exhausted)
        )
    sink = OutputSink()
    simulator = Simulator(isa, program, input_fn=input_fn, output=sink)
    result = simulator.run(max_cycles=max_cycles, fastpath=fastpath)
    return result, sink

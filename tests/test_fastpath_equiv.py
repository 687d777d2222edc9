"""Predecoded fast path vs single-step reference: bit-identical or bust.

Every observable of a run -- the full :class:`ExecStats`, the output
values *and their cycle stamps*, the halt reason, the final
architectural state, even decode-fault messages -- must match between
``fastpath=True`` (the predecoded dispatch) and ``fastpath=False`` (the
:meth:`Simulator.step` reference) on every ISA.
"""

import sys
import threading

import numpy as np
import pytest

from repro.asm import assemble
from repro.fab.testing import directed_program, random_program
from repro.isa import get_isa
from repro.kernels import calculator
from repro.kernels.kernel import Target
from repro.kernels.suite import SUITE
from repro.sim import (
    DISPATCHES,
    SimulationError,
    Simulator,
    clear_predecode_cache,
    predecode_image,
    resolve_dispatch,
    run_program,
)
from repro.sim.memory import PAGE_SIZE, ProgramMemory
from repro.sim.predecode import _IPORT_ADDR

ISA_NAMES = ("flexicore4", "flexicore8", "extacc", "loadstore")


def run_both(program, isa=None, inputs=None, **kwargs):
    ref = run_program(
        program, isa=isa,
        inputs=None if inputs is None else list(inputs),
        fastpath=False, **kwargs,
    )
    fast = run_program(
        program, isa=isa,
        inputs=None if inputs is None else list(inputs),
        fastpath=True, **kwargs,
    )
    return ref, fast


def assert_equivalent(program, isa=None, inputs=None, **kwargs):
    (ref_result, ref_sink), (fast_result, fast_sink) = run_both(
        program, isa=isa, inputs=inputs, **kwargs
    )
    assert fast_result.stats == ref_result.stats
    assert fast_result.halted == ref_result.halted
    assert fast_result.reason == ref_result.reason
    assert fast_sink.values == ref_sink.values
    assert fast_sink.cycles == ref_sink.cycles
    return ref_result, fast_result


def kernel_cases():
    cases = []
    for isa_name in ISA_NAMES:
        target = Target.named(isa_name)
        for kernel in SUITE:
            try:
                kernel.program(target)
            except Exception:
                continue  # no implementation for this target
            cases.append(pytest.param(
                isa_name, kernel, id=f"{isa_name}-{kernel.name}"
            ))
    return cases


class TestKernelSuite:
    @pytest.mark.parametrize("isa_name, kernel", kernel_cases())
    def test_kernels_bit_identical(self, isa_name, kernel):
        target = Target.named(isa_name)
        rng = np.random.default_rng(2022)
        inputs = kernel.generate_inputs(rng, 8)
        program = kernel.program(target)
        assert_equivalent(program, inputs=inputs)

    @pytest.mark.parametrize("isa_name, kernel", kernel_cases())
    def test_fastpath_passes_golden_model(self, isa_name, kernel):
        target = Target.named(isa_name)
        rng = np.random.default_rng(7)
        inputs = kernel.generate_inputs(rng, 6)
        result = kernel.check(target, inputs, fastpath=True)
        assert result.instructions > 0


#: ISAs the fab test-vector helpers support (they emit accumulator
#: mnemonics like ``load 0`` / ``store 1``).
ACC_ISA_NAMES = ("flexicore4", "flexicore8", "extacc")


class TestRandomPrograms:
    @pytest.mark.parametrize("isa_name", ISA_NAMES)
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_random_programs(self, isa_name, seed):
        isa = get_isa(isa_name)
        # Multi-byte ISAs overflow the page at random_program's default
        # length; branch targets may then land mid-instruction, so a
        # wandering PC can hit a decode fault -- which must also be
        # identical between the two paths.
        max_size = max(spec.size for spec in isa.specs.values())
        program = random_program(
            isa, np.random.default_rng(seed), length=120 // max_size,
        )
        inputs = [int(x) for x in
                  np.random.default_rng(seed + 100).integers(0, 16, 64)]
        outcomes = []
        for fastpath in (False, True):
            try:
                result, sink = run_program(
                    program, inputs=list(inputs), max_cycles=20_000,
                    on_exhausted="hold", fastpath=fastpath,
                )
                outcomes.append(
                    (result.stats, result.reason, sink.values, sink.cycles)
                )
            except SimulationError as exc:
                outcomes.append(("fault", str(exc)))
        assert outcomes[0] == outcomes[1]

    @pytest.mark.parametrize("isa_name", ACC_ISA_NAMES)
    def test_directed_program(self, isa_name):
        isa = get_isa(isa_name)
        program = directed_program(isa)
        inputs = [int(x) for x in
                  np.random.default_rng(5).integers(0, 16, 64)]
        assert_equivalent(
            program, inputs=inputs, max_cycles=50_000,
            on_exhausted="hold",
        )


class TestFinalState:
    @pytest.mark.parametrize("isa_name", ISA_NAMES)
    def test_architectural_state_identical(self, isa_name):
        isa = get_isa(isa_name)
        if isa.accumulator:
            program = directed_program(isa)
        else:
            kernel = next(k for k in SUITE if k.name == "Parity Check")
            program = kernel.program(Target.named(isa_name))
        states = []
        for fastpath in (False, True):
            simulator = Simulator(isa, program)
            simulator.state.input_fn = lambda: 5
            simulator.run(max_cycles=10_000, fastpath=fastpath)
            states.append({
                key: value for key, value in vars(simulator.state).items()
                if key not in ("input_fn", "output_fn")
            })
        assert states[0] == states[1]


class TestMultiPage:
    def test_multipage_kernel_with_mmu(self):
        # Calculator on flexicore4 spans three pages, so the run
        # exercises MMU page switches (table swaps on the fast path).
        target = Target.named("flexicore4")
        kernel = next(k for k in SUITE if k.name == "Calculator")
        program = kernel.program(target)
        assert len(program.image()) > 128
        rng = np.random.default_rng(11)
        inputs = kernel.generate_inputs(rng, 8)
        ref, fast = assert_equivalent(program, inputs=inputs)
        assert ref.stats.page_switches > 0
        assert fast.stats.page_switches == ref.stats.page_switches

    def test_ldb_two_byte_instructions(self):
        # FlexiCore8's 2-byte LOAD BYTE is the one variable-size case.
        program = assemble(
            "ldb 200\nstore 1\nldb -3\nstore 1\nnandi 0\nstop: brn stop\n",
            get_isa("flexicore8"),
        )
        (_, ref_sink), (fast_result, fast_sink) = run_both(program)
        assert fast_sink.values == ref_sink.values
        assert fast_result.stats.by_size[2] == 2


class TestEdgeConditions:
    def test_input_exhaustion_identical(self):
        program = assemble(
            "loop: load 0\nstore 1\nnandi 0\nbrn loop\n",
            get_isa("flexicore4"),
        )
        ref, fast = assert_equivalent(program, inputs=[3, 9, 12])
        assert ref.reason == "input_exhausted"
        # The exhausted read's instruction is not retired on either path.
        assert fast.stats.instructions == ref.stats.instructions

    def test_max_cycles_truncation_identical(self):
        program = assemble(
            "loop: addi 1\nnandi 0\nbrn loop\n", get_isa("flexicore4"),
        )
        for budget in (0, 1, 7, 100):
            ref, fast = assert_equivalent(program, max_cycles=budget)
            assert ref.reason == "max_cycles"
            assert fast.stats.instructions == budget

    def test_decode_fault_message_identical(self):
        # 0x08 is an undefined flexicore4 opcode; both paths must fault
        # with the same message (the fast path raises lazily from the
        # table, only when the PC actually lands on the bad offset).
        isa = get_isa("flexicore4")
        image = bytes([0x08])
        messages = []
        for fastpath in (False, True):
            with pytest.raises(SimulationError) as excinfo:
                run_program(image, isa=isa, fastpath=fastpath)
            messages.append(str(excinfo.value))
        assert messages[0] == messages[1]
        assert "decode fault at page address 0" in messages[0]

    def test_self_branch_halt_identical(self):
        program = assemble(
            "nandi 0\nstop: brn stop\n", get_isa("flexicore4"),
        )
        ref, fast = assert_equivalent(program)
        assert fast.reason == ref.reason == "self_branch"

    def test_halt_on_self_branch_disabled(self):
        program = assemble(
            "nandi 0\nstop: brn stop\n", get_isa("flexicore4"),
        )
        for fastpath in (False, True):
            simulator = Simulator(
                get_isa("flexicore4"), program, halt_on_self_branch=False,
            )
            result = simulator.run(max_cycles=50, fastpath=fastpath)
            assert result.reason == "max_cycles"
            assert result.instructions == 50


class TestDispatchRegistry:
    def test_registry_has_both_paths(self):
        assert resolve_dispatch("reference") is not None
        assert resolve_dispatch("predecode") is not None

    def test_unknown_dispatch_rejected(self):
        with pytest.raises(ValueError, match="unknown dispatch"):
            resolve_dispatch("turbo")

    def test_default_is_predecode(self):
        assert resolve_dispatch(None) is DISPATCHES["predecode"]

    def test_run_rejects_unknown_dispatch(self):
        program = assemble("nandi 0\nstop: brn stop\n",
                           get_isa("flexicore4"))
        simulator = Simulator(get_isa("flexicore4"), program)
        with pytest.raises(ValueError, match="unknown dispatch"):
            simulator.run(dispatch="turbo")


class TestPredecodeTables:
    def test_cache_returns_same_program(self):
        isa = get_isa("flexicore4")
        image = assemble("nandi 0\nstop: brn stop\n", isa).image()
        clear_predecode_cache()
        first = predecode_image(isa, image)
        second = predecode_image(isa, image)
        assert first is second

    def test_out_of_image_pages_share_zero_table(self):
        isa = get_isa("flexicore4")
        image_a = assemble("addi 1\nstop: brn stop\n", isa).image()
        image_b = assemble("addi 2\nstop: brn stop\n", isa).image()
        clear_predecode_cache()
        a = predecode_image(isa, image_a)
        b = predecode_image(isa, image_b)
        assert len(a.pages) == len(b.pages) == 16
        assert a.pages[15] is b.pages[15]

    def test_table_matches_reference_decode(self):
        isa = get_isa("flexicore4")
        program = directed_program(isa)
        image = program.image()
        table = predecode_image(isa, image).page(0)
        padded = image + bytes(4)
        for offset in range(min(len(image), 125)):
            decoded = isa.decode(padded, offset)
            entry = table.entry(offset)
            assert entry is not None
            assert entry.mnemonic == decoded.mnemonic
            assert entry.operands == decoded.operands
            assert entry.address == offset
            assert table.sizes[offset] == decoded.size

    def test_iport_flag_matches_replay_predicate(self):
        from repro.isa.state import IPORT_ADDR

        assert _IPORT_ADDR == IPORT_ADDR
        isa = get_isa("flexicore4")
        image = assemble("load 0\nstore 1\nstore 0\nadd 0\n", isa).image()
        table = predecode_image(isa, image).page(0)
        for offset in range(4):
            table.entry(offset)
        # load 0 reads the port; store-to-0 does not; add 0 does.
        assert table.reads_iport[0] is True
        assert table.reads_iport[1] is False
        assert table.reads_iport[2] is False
        assert table.reads_iport[3] is True


def run_image(image, isa, inputs, fastpath):
    result, sink = run_program(image, isa=isa, inputs=list(inputs),
                               fastpath=fastpath)
    return result.stats, result.reason, sink.values, sink.cycles


def count_decodes(monkeypatch, isa):
    """Record the offset of every ``isa.decode`` call from now on."""
    calls = []
    real = isa.decode

    def counting(code, offset=0):
        calls.append(offset)
        return real(code, offset)

    monkeypatch.setattr(isa, "decode", counting)
    return calls


class TestFirstFetchDecode:
    """An offset is decoded when the PC first lands on it, and never
    before; tables filled by one run, or by threads at once, still give
    the reference's results."""

    def calculator_image(self):
        target = Target.named("flexicore4")
        image = calculator.KERNEL.binary(target).image
        assert len(image) > 2 * PAGE_SIZE  # three pages, MMU switches
        return target.isa, image

    def test_decodes_exactly_the_fetched_offsets(self, monkeypatch):
        isa, image = self.calculator_image()
        inputs = calculator.KERNEL.generate_inputs(
            np.random.default_rng(2022), 12)
        fetched = set()
        real_fetch = ProgramMemory.fetch_window

        def recording_fetch(memory, pc):
            base, window = real_fetch(memory, pc)
            fetched.add(base)  # page * PAGE_SIZE + pc
            return base, window

        monkeypatch.setattr(ProgramMemory, "fetch_window", recording_fetch)
        reference = run_image(image, isa, inputs, fastpath=False)
        monkeypatch.setattr(ProgramMemory, "fetch_window", real_fetch)
        assert {base // PAGE_SIZE for base in fetched} == {0, 1, 2}

        clear_predecode_cache()
        calls = count_decodes(monkeypatch, isa)
        assert run_image(image, isa, inputs, fastpath=True) == reference
        assert len(calls) == len(fetched)

    def test_later_run_fills_offsets_an_earlier_run_left(
            self, monkeypatch):
        isa, image = self.calculator_image()
        first = [calculator.OP_ADD, 7, 8, calculator.OP_SUB, 4, 9]
        second = [calculator.OP_MUL, 15, 15, calculator.OP_DIV, 13, 4]
        references = [run_image(image, isa, inputs, fastpath=False)
                      for inputs in (first, second)]

        clear_predecode_cache()
        division_page = predecode_image(isa, image).pages[2]
        calls = count_decodes(monkeypatch, isa)
        assert run_image(image, isa, first, fastpath=True) == references[0]
        assert division_page.decoded.count(None) == PAGE_SIZE
        decoded_first = len(calls)
        # Multiplication and division live on pages the first run
        # never entered: the second run decodes them into the same
        # tables.
        assert run_image(image, isa, second, fastpath=True) == \
            references[1]
        assert len(calls) > decoded_first
        assert division_page.decoded.count(None) < PAGE_SIZE

    @pytest.mark.parametrize("kernel", SUITE, ids=lambda k: k.name)
    def test_threads_share_a_fresh_table(self, kernel):
        """The service runs jobs on threads that share tables: four
        threads filling one fresh image's tables at once, switching as
        often as the interpreter allows, each match the reference.

        A race shows in some rounds only: a table that marked an offset
        decoded before filling its entries failed 2 to 6 of 20 rounds
        per kernel.  So each kernel runs twenty fresh rounds."""
        target = Target.named("flexicore4")
        image = kernel.binary(target).image
        inputs = kernel.generate_inputs(np.random.default_rng(5), 8)
        reference = run_image(image, target.isa, inputs, fastpath=False)

        def run(index, barrier, outcomes):
            barrier.wait()
            try:
                outcomes[index] = run_image(image, target.isa, inputs,
                                            fastpath=True)
            except Exception as exc:  # compared below
                outcomes[index] = exc

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                clear_predecode_cache()
                program = predecode_image(target.isa, image)
                barrier = threading.Barrier(4, timeout=60.0)
                outcomes = [None] * 4
                threads = [
                    threading.Thread(target=run,
                                     args=(index, barrier, outcomes))
                    for index in range(4)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60.0)
                    assert not thread.is_alive(), "a run hung"
                assert predecode_image(target.isa, image) is program
                assert outcomes == [reference] * 4
        finally:
            sys.setswitchinterval(interval)


class TestCrossCheckFastpath:
    def test_cross_check_replay_identical(self):
        from repro.netlist.cores import build_core
        from repro.netlist.verify import run_cross_check

        isa = get_isa("flexicore4")
        netlist = build_core("flexicore4")
        program = directed_program(isa)
        rng = np.random.default_rng(3)
        inputs = [int(rng.integers(0, 16)) for _ in range(48)]
        ref = run_cross_check(
            netlist, isa, program, inputs=inputs,
            max_instructions=150, fastpath=False,
        )
        fast = run_cross_check(
            netlist, isa, program, inputs=inputs,
            max_instructions=150, fastpath=True,
        )
        assert (fast.cycles, fast.mismatches, fast.first_mismatch,
                fast.toggle_fraction, fast.mean_toggles) == \
               (ref.cycles, ref.mismatches, ref.first_mismatch,
                ref.toggle_fraction, ref.mean_toggles)
        assert fast.passed


class TestJobVersions:
    def test_wafer_jobs_bumped_for_batched_draws(self):
        from repro.fab.yield_model import probed_wafer_job, wafer_yield_job

        assert wafer_yield_job.__engine_version__ == "2"
        assert probed_wafer_job.__engine_version__ == "2"

"""Property-style equivalence: packed backends vs the interpreted reference.

The compiled and vector backends' only correctness contract is
"bit-identical to the interpreter": same outputs, same per-gate toggle
counts, same fault verdicts, same observability totals.  These tests
check that contract on random programs and random fault sites over the
fabricated cores (FlexiCore4, FlexiCore8) and on random stimulus over
the DSE cores; the vector backend is additionally exercised across its
64-lane word boundary (non-multiple-of-64 lane counts), with zero-fault
lanes, multi-defect die lanes, and per-lane input variation.
"""

import numpy as np
import pytest

from repro import obs
from repro.fab.testing import random_program, sample_fault_sites
from repro.isa import get_isa
from repro.isa.extended import FULL_FEATURES
from repro.netlist.backend import (
    BACKENDS,
    VECTOR_MAX_LANES,
    WORD_LANES,
    CompiledBackend,
    VectorBackend,
    make_backend,
    resolve_backend,
)
from repro.netlist.cores import build_core
from repro.netlist.dse_cores import build_extended_core, build_loadstore_core
from repro.netlist.sim import GateLevelSimulator
from repro.netlist.verify import run_cross_check, run_cross_check_batch

FAB_CORES = ("flexicore4", "flexicore8")


@pytest.fixture(scope="module")
def cores():
    return {name: build_core(name) for name in FAB_CORES}


def _random_inputs(rng, bits, count):
    return [int(rng.integers(0, 1 << bits)) for _ in range(count)]


class TestCrossCheckEquivalence:
    """run_cross_check(_batch) through both backends, result for result."""

    @pytest.mark.parametrize("core", FAB_CORES)
    def test_random_program_and_faults_match(self, cores, core):
        netlist = cores[core]
        isa = get_isa(core)
        rng = np.random.default_rng(20220806)
        program = random_program(isa, rng, length=48)
        inputs = _random_inputs(rng, isa.word_bits, 32)
        faults = [None] + sample_fault_sites(netlist, rng, 7)

        reference = [
            run_cross_check(
                netlist, isa, program, inputs=inputs,
                max_instructions=100, fault=fault, backend="interpreted",
            )
            for fault in faults
        ]
        batched = run_cross_check_batch(
            netlist, isa, program, inputs=inputs,
            max_instructions=100, faults=faults, backend="compiled",
        )
        # Dataclass equality covers cycles, mismatch counts, the exact
        # first-mismatch message, and both toggle statistics.
        assert batched == reference
        vectored = run_cross_check_batch(
            netlist, isa, program, inputs=inputs,
            max_instructions=100, faults=faults, backend="vector",
        )
        assert vectored == reference

    def test_fault_free_single_lane_matches(self, cores):
        netlist = cores["flexicore4"]
        isa = get_isa("flexicore4")
        rng = np.random.default_rng(99)
        program = random_program(isa, rng, length=32)
        inputs = _random_inputs(rng, isa.word_bits, 16)
        results = {
            name: run_cross_check(
                netlist, isa, program, inputs=inputs,
                max_instructions=60, backend=name,
            )
            for name in sorted(BACKENDS)
        }
        assert results["compiled"] == results["interpreted"]
        assert results["vector"] == results["interpreted"]

    def test_interpreted_chunks_to_per_fault_runs(self, cores):
        """The single-lane reference still accepts a fault batch."""
        netlist = cores["flexicore4"]
        isa = get_isa("flexicore4")
        rng = np.random.default_rng(4)
        program = random_program(isa, rng, length=24)
        faults = sample_fault_sites(netlist, rng, 3)
        batched = run_cross_check_batch(
            netlist, isa, program, max_instructions=40,
            faults=faults, backend="interpreted",
        )
        assert len(batched) == len(faults)


class TestLaneSemantics:
    """Per-lane state on the compiled backend vs serial reference runs."""

    def test_mixed_fault_lanes_match_serial(self, cores):
        netlist = cores["flexicore4"]
        comb_gate = next(
            g.name for g in netlist.gates if not g.sequential
        )
        flop_gate = next(g.name for g in netlist.gates if g.sequential)
        faults = [None, (comb_gate, 1), (flop_gate, 0), (comb_gate, 1)]

        packed = CompiledBackend(netlist, lanes=len(faults))
        packed.set_fault_lanes(faults)
        serial = []
        for fault in faults:
            sim = GateLevelSimulator(netlist)
            sim.set_fault_lanes([fault])
            serial.append(sim)

        rng = np.random.default_rng(11)
        for _ in range(24):
            stimulus = {
                "instr": int(rng.integers(0, 256)),
                "iport": int(rng.integers(0, 16)),
            }
            packed.set_inputs(stimulus)
            packed.step()
            for sim in serial:
                sim.set_inputs(stimulus)
                sim.step()
            for lane, sim in enumerate(serial):
                assert packed.read_bus("pc", lane=lane) == \
                    sim.read_bus("pc")
                assert packed.read_bus("oport", lane=lane) == \
                    sim.read_bus("oport")

        for lane, sim in enumerate(serial):
            assert packed.toggles(lane) == sim.toggles()
            assert packed.toggle_coverage(lane) == sim.toggle_coverage()
        # Duplicate faults in different lanes behave identically.
        assert packed.toggles(3) == packed.toggles(1)

    def test_lane_bounds(self, cores):
        netlist = cores["flexicore4"]
        with pytest.raises(ValueError):
            CompiledBackend(netlist, lanes=WORD_LANES + 1)
        with pytest.raises(ValueError):
            CompiledBackend(netlist, lanes=0)
        with pytest.raises(ValueError):
            GateLevelSimulator(netlist, lanes=2)
        reference = GateLevelSimulator(netlist)
        with pytest.raises(IndexError):
            reference.read_bus("pc", lane=1)
        with pytest.raises(IndexError):
            reference.read_net("pc0", lane=1)
        with pytest.raises(IndexError):
            reference.toggles(1)
        with pytest.raises(ValueError):
            reference.set_fault_lanes([None, None])
        sim = CompiledBackend(netlist, lanes=2)
        with pytest.raises(IndexError):
            sim.read_bus("pc", lane=2)
        with pytest.raises(ValueError):
            sim.set_fault_lanes([None, None, None])


class TestVectorLaneSemantics:
    """Vector-specific lane behavior: word-boundary crossing, zero-fault
    lanes, multi-defect die lanes, and per-lane input variation (which
    the compiled backend shares)."""

    @pytest.mark.parametrize("core", FAB_CORES)
    def test_boundary_crossing_campaign_matches_compiled(self, cores,
                                                         core):
        """70 lanes (not a multiple of 64, spilling into word 1) with
        zero-fault lanes interleaved, checked against the compiled
        backend (itself proven against the interpreter above)."""
        netlist = cores[core]
        isa = get_isa(core)
        rng = np.random.default_rng(70)
        program = random_program(isa, rng, length=40)
        inputs = _random_inputs(rng, isa.word_bits, 24)
        sites = sample_fault_sites(netlist, rng, 67)
        faults = [None, None] + sites[:33] + [None] + sites[33:]
        assert len(faults) == 70 and len(faults) % WORD_LANES != 0
        compiled = run_cross_check_batch(
            netlist, isa, program, inputs=inputs,
            max_instructions=80, faults=faults, backend="compiled",
        )
        vectored = run_cross_check_batch(
            netlist, isa, program, inputs=inputs,
            max_instructions=80, faults=faults, backend="vector",
        )
        assert vectored == compiled

    def test_multi_defect_die_lanes_match_serial(self, cores):
        """A lane entry that is a *list* of stuck-at pairs behaves like
        one interpreted instance with every fault injected."""
        netlist = cores["flexicore4"]
        rng = np.random.default_rng(17)
        sites = sample_fault_sites(netlist, rng, 6)
        faults = [None, sites[:2], sites[2:5], [sites[5]]]

        packed = VectorBackend(netlist, lanes=len(faults))
        packed.set_fault_lanes(faults)
        serial = []
        for entry in faults:
            sim = GateLevelSimulator(netlist)
            sim.set_fault_lanes([entry])
            serial.append(sim)

        drive = np.random.default_rng(23)
        for _ in range(20):
            stimulus = {
                "instr": int(drive.integers(0, 256)),
                "iport": int(drive.integers(0, 16)),
            }
            packed.set_inputs(stimulus)
            packed.step()
            for sim in serial:
                sim.set_inputs(stimulus)
                sim.step()
        for lane, sim in enumerate(serial):
            assert packed.read_bus("pc", lane=lane) == \
                sim.read_bus("pc")
            assert packed.read_bus("oport", lane=lane) == \
                sim.read_bus("oport")
            assert packed.toggles(lane) == sim.toggles()

    @pytest.mark.parametrize("core", FAB_CORES)
    def test_gate_stuck_at_both_values_is_stuck_at_one(self, cores, core):
        """A die's defect draw can name one gate at both stuck values.
        Every backend then holds the gate at 1, whichever entry comes
        first, so the lane equals the lane with the gate stuck at 1."""
        netlist = cores[core]
        isa = get_isa(core)
        rng = np.random.default_rng(43)
        program = random_program(isa, rng, length=40)
        inputs = _random_inputs(rng, isa.word_bits, 24)
        faults = [
            entry
            for gate, _ in sample_fault_sites(netlist, rng, 4)
            for entry in ([(gate, 1), (gate, 0)], [(gate, 0), (gate, 1)],
                          (gate, 1))
        ]
        results = {
            backend: run_cross_check_batch(
                netlist, isa, program, inputs=inputs,
                max_instructions=60, faults=faults, backend=backend,
            )
            for backend in ("interpreted", "compiled", "vector")
        }
        assert results["compiled"] == results["interpreted"]
        assert results["vector"] == results["interpreted"]
        reference = results["interpreted"]
        for first in range(0, len(faults), 3):
            assert reference[first] == reference[first + 1] \
                == reference[first + 2]

    @pytest.mark.parametrize("backend_cls, lanes, check", [
        pytest.param(CompiledBackend, WORD_LANES, [0, 1, 31, 63],
                     id="compiled"),
        # Both sides of the vector backend's first word boundary.
        pytest.param(VectorBackend, 70, [0, 1, 63, 64, 69], id="vector"),
    ])
    def test_per_lane_inputs_match_serial(self, cores, backend_cls, lanes,
                                          check):
        """set_input_lanes: each lane sees its own IPORT value, as a
        per-die variation vector, bit-exact vs per-lane references."""
        netlist = cores["flexicore4"]
        packed = backend_cls(netlist, lanes=lanes)
        rng = np.random.default_rng(3)
        iports = rng.integers(0, 16, size=lanes)
        serial = {lane: GateLevelSimulator(netlist) for lane in check}
        for _ in range(16):
            instr = int(rng.integers(0, 256))
            packed.set_inputs({"instr": instr})
            packed.set_input_lanes({"iport": iports})
            packed.step()
            for lane, sim in serial.items():
                sim.set_inputs({
                    "instr": instr, "iport": int(iports[lane]),
                })
                sim.step()
        for lane, sim in serial.items():
            assert packed.read_bus("pc", lane=lane) == \
                sim.read_bus("pc")
            assert packed.read_bus("oport", lane=lane) == \
                sim.read_bus("oport")
            assert packed.toggles(lane) == sim.toggles()

    @pytest.mark.parametrize("backend_cls", [CompiledBackend, VectorBackend],
                             ids=["compiled", "vector"])
    def test_per_lane_input_validation(self, cores, backend_cls):
        sim = backend_cls(cores["flexicore4"], lanes=4)
        with pytest.raises(ValueError, match="one value per lane"):
            sim.set_input_lanes({"iport": [1, 2]})
        with pytest.raises(ValueError, match="out of range"):
            sim.set_input_lanes({"iport": [0, 1, 2, 16]})
        with pytest.raises(ValueError, match="must be 0 or 1"):
            sim.set_input_lanes({"iport0": [0, 1, 2, 0]})
        with pytest.raises(KeyError):
            sim.set_input_lanes({"no_such_bus": [0, 0, 0, 0]})

    def test_interpreted_takes_broadcast_inputs_only(self, cores):
        sim = GateLevelSimulator(cores["flexicore4"])
        with pytest.raises(NotImplementedError):
            sim.set_input_lanes({"iport": [1]})

    def test_lane_bounds(self, cores):
        netlist = cores["flexicore4"]
        with pytest.raises(ValueError):
            VectorBackend(netlist, lanes=0)
        with pytest.raises(ValueError):
            VectorBackend(netlist, lanes=VECTOR_MAX_LANES + 1)
        sim = VectorBackend(netlist, lanes=66)
        with pytest.raises(IndexError):
            sim.read_bus("pc", lane=66)
        with pytest.raises(ValueError):
            sim.set_fault_lanes([None] * 67)
        # Capacity past one word is real, not just accepted.
        assert sim.read_bus("pc", lane=65) == sim.read_bus("pc", lane=0)


#: IPORT decides the branch: a negative sample (MSB set) goes to ``neg``.
_IPORT_BRANCH_SOURCE = """
top:
    load 0
    store 1
    brn neg
    addi 3
    store 1
    load 0
    xori 6
    store 1
    brn top
    nandi 0
    brn top
neg:
    load 0
    nandi 5
    store 1
    nandi 0
    brn top
"""

#: Four lane streams, two of them equal.  A and C have the same sign
#: pattern (the same branches, different OPORT values); B branches
#: elsewhere, so its lanes fetch other instructions.
_STREAM_A = [1, 9, 2, 12, 3, 4, 10, 5, 1, 14, 2, 3, 11, 6, 7, 9]
_STREAM_B = [9, 1, 10, 2, 3, 12, 4, 5, 9, 6, 2, 10, 3, 5, 7, 1]
_STREAM_C = [2, 10, 3, 13, 4, 5, 11, 6, 2, 15, 3, 4, 12, 7, 6, 8]
_LANE_STREAMS = [_STREAM_A, _STREAM_B, list(_STREAM_A), _STREAM_C]


class TestCrossCheckLaneInputs:
    """run_cross_check_batch(lane_inputs=...): one IPORT stream per lane,
    lane for lane equal to single-lane interpreted runs."""

    MAX_INSTRUCTIONS = 40

    @pytest.fixture(scope="class")
    def setup(self, cores):
        from repro.asm import assemble

        isa = get_isa("flexicore4")
        netlist = cores["flexicore4"]
        program = assemble(_IPORT_BRANCH_SOURCE, isa)
        rng = np.random.default_rng(8)
        entries = [None, *sample_fault_sites(netlist, rng, 2),
                   sample_fault_sites(netlist, rng, 3), None]
        return netlist, isa, program, entries, {}

    @pytest.mark.parametrize("lanes, backend", [
        (12, "compiled"),  # several streams in one 64-lane word
        (160, "vector"),   # across vector word boundaries
    ])
    def test_lanes_match_interpreted_runs(self, setup, lanes, backend):
        netlist, isa, program, entries, reference = setup
        lane_streams = [_LANE_STREAMS[lane % 4] for lane in range(lanes)]
        lane_faults = [entries[(lane // 4) % len(entries)]
                       for lane in range(lanes)]
        assert resolve_backend(None, lanes).name == backend
        batched = run_cross_check_batch(
            netlist, isa, program, faults=lane_faults,
            lane_inputs=lane_streams,
            max_instructions=self.MAX_INSTRUCTIONS,
        )
        assert len(batched) == lanes
        for lane, outcome in enumerate(batched):
            key = (lane % 4, (lane // 4) % len(entries))
            if key not in reference:
                reference[key] = run_cross_check(
                    netlist, isa, program, inputs=lane_streams[lane],
                    fault=lane_faults[lane], backend="interpreted",
                    max_instructions=self.MAX_INSTRUCTIONS,
                )
            assert outcome == reference[key], lane

    def test_streams_change_control_flow(self, setup):
        """The fixture's premise: A and C fetch alike, B does not, so
        one batch runs two lane groups."""
        from repro.netlist.verify import _replay

        _, isa, program, _, _ = setup
        fetches = [
            _replay(isa, program.image(), stream,
                    self.MAX_INSTRUCTIONS).fetches
            for stream in _LANE_STREAMS
        ]
        assert fetches[0] == fetches[2] == fetches[3] != fetches[1]

    def test_lane_inputs_length_must_match_faults(self, setup):
        netlist, isa, program, _, _ = setup
        with pytest.raises(ValueError, match="lane_inputs"):
            run_cross_check_batch(
                netlist, isa, program, faults=[None, None],
                lane_inputs=[_STREAM_A],
            )
        with pytest.raises(ValueError, match="not both"):
            run_cross_check_batch(
                netlist, isa, program, faults=[None],
                inputs=_STREAM_A, lane_inputs=[_STREAM_A],
            )


class TestDseCoreEquivalence:
    """The DSE netlists simulate identically on both backends."""

    @pytest.mark.parametrize("builder", [
        pytest.param(
            lambda: build_extended_core(frozenset(FULL_FEATURES)),
            id="extacc-full",
        ),
        pytest.param(lambda: build_loadstore_core("SC"), id="loadstore-sc"),
    ])
    def test_random_stimulus_and_toggles_match(self, builder):
        netlist = builder()
        instr_bits = sum(
            1 for net in netlist.inputs if net.startswith("instr")
        )
        iport_bits = sum(
            1 for net in netlist.inputs if net.startswith("iport")
        )
        reference = make_backend("interpreted", netlist)
        compiled = make_backend("compiled", netlist)
        vectored = make_backend("vector", netlist)
        rng = np.random.default_rng(2022)
        for _ in range(32):
            stimulus = {
                "instr": int(rng.integers(0, 1 << instr_bits)),
                "iport": int(rng.integers(0, 1 << iport_bits)),
            }
            for sim in (reference, compiled, vectored):
                sim.set_inputs(stimulus)
                sim.step()
            for sim in (compiled, vectored):
                assert sim.read_bus("pc") == reference.read_bus("pc")
                assert sim.read_bus("oport") == \
                    reference.read_bus("oport")
        assert compiled.toggles() == reference.toggles()
        assert vectored.toggles() == reference.toggles()

    def test_dse_core_fault_verdicts_match(self):
        netlist = build_extended_core(frozenset(FULL_FEATURES))
        rng = np.random.default_rng(5)
        sites = sample_fault_sites(netlist, rng, 4)

        def outputs_after(backend_name, fault):
            sim = make_backend(backend_name, netlist)
            if fault is not None:
                sim.set_fault_lanes([fault])
            drive = np.random.default_rng(77)
            trace = []
            for _ in range(16):
                sim.set_inputs({
                    "instr": int(drive.integers(0, 256)),
                    "iport": int(drive.integers(0, 16)),
                })
                sim.step()
                trace.append((sim.read_bus("pc"), sim.read_bus("oport")))
            return trace

        for fault in [None] + sites:
            reference = outputs_after("interpreted", fault)
            assert outputs_after("compiled", fault) == reference
            assert outputs_after("vector", fault) == reference


class TestInputValidation:
    """Satellite: strict scalar/bus validation on every backend."""

    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    def test_scalar_rejects_out_of_range(self, cores, backend):
        sim = make_backend(backend, cores["flexicore4"])
        with pytest.raises(ValueError, match="must be 0 or 1"):
            sim.set_inputs({"instr0": 2})
        with pytest.raises(ValueError, match="must be 0 or 1"):
            sim.set_inputs({"instr0": -1})
        sim.set_inputs({"instr0": 1})
        assert sim.read_net("instr0") == 1

    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    def test_bus_rejects_out_of_range(self, cores, backend):
        sim = make_backend(backend, cores["flexicore4"])
        with pytest.raises(ValueError, match="out of range"):
            sim.set_inputs({"instr": 256})
        with pytest.raises(ValueError, match="out of range"):
            sim.set_inputs({"iport": -1})
        with pytest.raises(KeyError):
            sim.set_inputs({"no_such_bus": 1})

    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    def test_read_bus_width_checked(self, cores, backend):
        sim = make_backend(backend, cores["flexicore4"])
        with pytest.raises(KeyError, match="only 7 bits wide"):
            sim.read_bus("pc", width=8)
        with pytest.raises(KeyError, match="no such bus"):
            sim.read_bus("nonexistent")
        assert sim.read_bus("pc", width=4) == sim.read_bus("pc") & 0xF


class TestObservability:
    """Lane-adjusted counters: batched totals equal serial totals."""

    @pytest.fixture(autouse=True)
    def clean_obs(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_STATE_DIR", str(tmp_path / "state"))
        obs.reset()
        yield
        obs.reset()

    GATE_COUNTERS = (
        "gate_evaluations_total",
        "gate_settle_passes_total",
        "gate_sim_cycles_total",
    )

    def _campaign_totals(self, netlist, isa, program, faults, backend):
        obs.reset()
        obs.configure(metrics=True)
        if backend == "interpreted":
            for fault in faults:
                run_cross_check(
                    netlist, isa, program, max_instructions=30,
                    fault=fault, backend=backend,
                )
        else:
            run_cross_check_batch(
                netlist, isa, program, max_instructions=30,
                faults=faults, backend=backend,
            )
        registry = obs.registry()
        return {
            name: registry.counter(name).total()
            for name in self.GATE_COUNTERS
        }

    def test_batched_totals_equal_serial(self, cores):
        netlist = cores["flexicore4"]
        isa = get_isa("flexicore4")
        rng = np.random.default_rng(8)
        program = random_program(isa, rng, length=16)
        faults = [None] + sample_fault_sites(netlist, rng, 5)
        serial = self._campaign_totals(
            netlist, isa, program, faults, "interpreted"
        )
        batched = self._campaign_totals(
            netlist, isa, program, faults, "compiled"
        )
        assert batched == serial
        vectored = self._campaign_totals(
            netlist, isa, program, faults, "vector"
        )
        assert vectored == serial
        assert serial["gate_evaluations_total"] > 0


class TestRegistry:
    def test_known_backends(self):
        assert set(BACKENDS) == {"interpreted", "compiled", "vector"}
        assert resolve_backend("compiled") is CompiledBackend
        assert resolve_backend("interpreted") is GateLevelSimulator
        assert BACKENDS["interpreted"] is GateLevelSimulator
        assert resolve_backend("vector") is VectorBackend
        assert VectorBackend.max_lanes == VECTOR_MAX_LANES
        assert VectorBackend.max_lanes > CompiledBackend.max_lanes

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            resolve_backend("verilated")

    def test_unnamed_backend_follows_lane_count(self, cores):
        # One machine word of lanes runs compiled, anything wider vector.
        assert resolve_backend(None) is CompiledBackend
        assert resolve_backend(None, 64) is CompiledBackend
        assert resolve_backend(None, 65) is VectorBackend
        sim = make_backend(None, cores["flexicore4"], lanes=124)
        assert isinstance(sim, VectorBackend)
        assert sim.lanes == 124
        # A named backend wins over the rule.
        assert resolve_backend("compiled", 124) is CompiledBackend

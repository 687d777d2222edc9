"""Test-vector methodology (Section 4.1): coverage and fault detection."""

import numpy as np
import pytest

from repro import obs
from repro.fab.testing import (
    directed_program,
    fault_injection_study,
    random_program,
    toggle_coverage_study,
)
from repro.isa import get_isa
from repro.netlist import build_flexicore4, build_flexicore8


@pytest.fixture(scope="module")
def fc4():
    return build_flexicore4()


class TestDirectedProgram:
    @pytest.mark.parametrize("isa_name", ["flexicore4", "flexicore8"])
    def test_fits_one_page(self, isa_name):
        program = directed_program(get_isa(isa_name))
        assert program.size_bytes <= 128

    def test_touches_every_mnemonic_class(self):
        program = directed_program(get_isa("flexicore4"))
        histogram = program.mnemonic_histogram()
        for mnemonic in ("load", "store", "add", "nand", "xor",
                         "addi", "nandi", "xori", "brn"):
            assert histogram.get(mnemonic, 0) > 0, mnemonic

    def test_stores_to_output_port(self):
        program = directed_program(get_isa("flexicore4"))
        observing = [entry for entry in program.listing
                     if entry.mnemonic == "store"
                     and entry.operands == (1,)]
        assert len(observing) > 10  # results propagate to the pins


class TestRandomProgram:
    def test_assembles_and_decodes(self):
        isa = get_isa("flexicore4")
        rng = np.random.default_rng(0)
        program = random_program(isa, rng, length=64)
        assert program.static_instructions == 64

    def test_branch_targets_in_range(self):
        isa = get_isa("flexicore4")
        rng = np.random.default_rng(1)
        program = random_program(isa, rng, length=50)
        for entry in program.listing:
            if entry.mnemonic == "brn":
                assert 0 <= entry.operands[0] < 50

    def test_different_seeds_differ(self):
        isa = get_isa("flexicore4")
        p1 = random_program(isa, np.random.default_rng(1))
        p2 = random_program(isa, np.random.default_rng(2))
        assert p1.image() != p2.image()


class TestFaultDetection:
    def test_majority_of_faults_detected(self, fc4):
        rng = np.random.default_rng(5)
        study = fault_injection_study(
            fc4, get_isa("flexicore4"), rng, faults=25
        )
        assert study.coverage >= 0.6
        assert study.injected == 25
        assert len(study.details) == 25

    def test_zero_faults(self, fc4):
        rng = np.random.default_rng(5)
        study = fault_injection_study(
            fc4, get_isa("flexicore4"), rng, faults=0
        )
        assert study.coverage == 0.0

    @pytest.mark.parametrize("faults, expected, other", [
        (20, "compiled", "vector"),   # fits one 64-lane machine word
        (80, "vector", "compiled"),   # does not
    ])
    def test_unnamed_backend_follows_fault_count(self, fc4, tmp_path,
                                                 monkeypatch, faults,
                                                 expected, other):
        def study(backend=None):
            return fault_injection_study(
                fc4, get_isa("flexicore4"), np.random.default_rng(5),
                faults=faults, max_instructions=80, backend=backend,
            )

        monkeypatch.setenv("REPRO_STATE_DIR", str(tmp_path / "state"))
        obs.reset()
        obs.configure(metrics=True, trace=True)
        try:
            chosen = study()
            spans = [record for record in obs.collected_spans()
                     if record["name"] == "fab.fault_injection"]
        finally:
            obs.reset()
        assert [span["attrs"]["backend"] for span in spans] == [expected]
        assert chosen.injected == faults
        assert chosen.details == study(other).details

    def test_same_verdicts_on_every_backend(self, fc4):
        verdicts = {}
        for backend in ("interpreted", "compiled", "vector"):
            study = fault_injection_study(
                fc4, get_isa("flexicore4"),
                np.random.default_rng(5), faults=8,
                max_instructions=80, backend=backend,
            )
            verdicts[backend] = study.details
        assert verdicts["compiled"] == verdicts["interpreted"]
        assert verdicts["vector"] == verdicts["interpreted"]


class TestToggleCoverage:
    def test_directed_vectors_toggle_nearly_everything(self, fc4):
        rng = np.random.default_rng(9)
        result = toggle_coverage_study(
            fc4, get_isa("flexicore4"), rng, instructions=1200
        )
        assert result.passed
        # Section 4.1: "all gates toggle at least once".
        assert result.toggle_fraction > 0.95
        assert result.mean_toggles > 50

"""Fabrication, probing, yield and process-variation models (Section 4)."""

from repro.fab.process import FC4_WAFER, FC8_WAFER, WaferProcess, process_for
from repro.fab.testing import (
    FaultStudyResult,
    directed_program,
    fault_injection_study,
    fault_study_job,
    random_program,
    sample_fault_sites,
    toggle_coverage_study,
)
from repro.fab.wafer import (
    DEFAULT_DIE_PITCH_MM,
    DIE_AREA_MM2,
    EDGE_EXCLUSION_MM,
    WAFER_DIAMETER_MM,
    DieSite,
    Wafer,
)
from repro.fab.yield_model import (
    TEST_CYCLES,
    Die,
    FabricatedWafer,
    ProbeRecord,
    WaferProbeResult,
    fabricate_wafer,
    gate_probe_wafer,
    gate_wafer_yield_job,
    probed_wafer_job,
    run_fault_coverage,
    run_gate_yield_study,
    run_yield_study,
    wafer_yield_job,
)

__all__ = [
    "DEFAULT_DIE_PITCH_MM", "DIE_AREA_MM2", "Die", "DieSite",
    "EDGE_EXCLUSION_MM", "FC4_WAFER", "FC8_WAFER", "FabricatedWafer",
    "FaultStudyResult", "ProbeRecord", "TEST_CYCLES", "WAFER_DIAMETER_MM",
    "Wafer", "WaferProbeResult", "WaferProcess", "directed_program",
    "fabricate_wafer", "fault_injection_study",
    "fault_study_job", "gate_probe_wafer", "gate_wafer_yield_job",
    "probed_wafer_job", "process_for", "random_program",
    "run_fault_coverage", "run_gate_yield_study", "run_yield_study",
    "sample_fault_sites", "toggle_coverage_study", "wafer_yield_job",
]

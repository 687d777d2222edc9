"""Gate-level models: netlists, simulation, timing, cross-verification."""

from repro.netlist.builder import NetlistBuilder
from repro.netlist.core import GateInst, Netlist
from repro.netlist.cores import build_flexicore4, build_flexicore8
from repro.netlist.dse_cores import (
    build_extended_core,
    build_loadstore_core,
)
from repro.netlist.backend import (
    CompiledBackend,
    SimBackend,
    VectorBackend,
    make_backend,
)
from repro.netlist.export import to_verilog
from repro.netlist.floorplan import render as render_floorplan
from repro.netlist.levelize import levelize
from repro.netlist.sim import CombinationalLoopError, GateLevelSimulator
from repro.netlist.sta import FETCH_DELAY_UNITS, TimingReport, analyze
from repro.netlist.verify import (
    CrossCheckResult,
    run_cross_check,
    run_cross_check_batch,
)

__all__ = [
    "CombinationalLoopError",
    "CompiledBackend",
    "CrossCheckResult",
    "FETCH_DELAY_UNITS",
    "GateInst",
    "GateLevelSimulator",
    "Netlist",
    "NetlistBuilder",
    "SimBackend",
    "TimingReport",
    "VectorBackend",
    "analyze",
    "build_extended_core",
    "build_flexicore4",
    "build_flexicore8",
    "build_loadstore_core",
    "levelize",
    "make_backend",
    "render_floorplan",
    "run_cross_check",
    "run_cross_check_batch",
    "to_verilog",
]

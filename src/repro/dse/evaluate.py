"""Design-point evaluation: area, power, timing, code size, energy.

Everything Figures 9-13 need, measured rather than assumed:

- *area / static power* come from the design's gate-level netlist;
- *clock period* comes from STA plus the microarchitecture period model
  (single-cycle pays fetch + execute in one cycle; the two-stage pipeline
  overlaps fetch with a decode-trimmed execute stage; multicycle runs a
  shorter per-cycle path but more cycles);
- *code size* comes from assembling the Table 6 suite against the
  design's ISA with its macro library;
- *cycles* come from functional simulation plus the
  :mod:`repro.sim.timing` cycle models at the design's program-bus width;
- with ``gate_check`` the netlist is also run at the gate level, in one
  lane of the compiled backend (:func:`gate_level_check`).
"""

import math
import time
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, Optional

import numpy as np

from repro import obs
from repro.dse.designs import ALL_DESIGNS, DesignPoint
from repro.engine import Job, engine_or_default, job_function
from repro.kernels.kernel import Target
from repro.kernels.suite import SUITE
from repro.netlist.backend import make_backend, resolve_backend
from repro.netlist.sta import FETCH_DELAY_UNITS, analyze
from repro.sim import MicroArch, cycle_count, cycles_multicycle
from repro.sim.timing import InfeasibleDesign
from repro.tech.cells import SECONDS_PER_DELAY_UNIT
from repro.tech.power import OperatingPoint, static_power_w

#: Pipeline register (clock-to-q + setup) cost added to a staged period.
PIPELINE_REG_UNITS = 2.0
#: Fraction of the core critical path left in the execute stage after
#: the fetch|execute split moves instruction decode into stage one.
EXEC_STAGE_FRACTION = 0.7
#: Decode delay charged to the fetch stage of a pipelined design.
DECODE_STAGE_FRACTION = 0.2
#: Per-cycle path fraction of a multicycle design.  The split is poor:
#: there is "very limited opportunity for structure reuse" (Section 3.4),
#: so the execute cycle still traverses most of the core.
MC_STAGE_FRACTION = 0.8


def period_units(report, microarch):
    """Clock period of a design, in normalized delay units."""
    crit = report.critical_delay_units
    if microarch == MicroArch.SINGLE_CYCLE:
        return FETCH_DELAY_UNITS + crit
    if microarch == MicroArch.PIPELINED:
        fetch_stage = FETCH_DELAY_UNITS + DECODE_STAGE_FRACTION * crit
        exec_stage = EXEC_STAGE_FRACTION * crit
        return max(fetch_stage, exec_stage) + PIPELINE_REG_UNITS
    if microarch == MicroArch.MULTICYCLE:
        per_cycle = max(FETCH_DELAY_UNITS, MC_STAGE_FRACTION * crit)
        return per_cycle + PIPELINE_REG_UNITS
    raise ValueError(microarch)


@dataclass
class KernelMetrics:
    """One kernel on one design."""

    static_instructions: int
    code_bits: int
    dynamic_instructions: int
    cycles: int
    time_s: float
    energy_j: float
    feasible: bool = True


@dataclass
class DesignMetrics:
    """Full evaluation of one design point."""

    design: DesignPoint
    gate_count: int
    nand2_area: float
    area_mm2: float
    pullups: int
    static_power_w: float
    critical_delay_units: float
    period_units: float
    frequency_hz: float
    kernels: Dict[str, KernelMetrics] = field(default_factory=dict)
    #: Optional gate-level grounding result (:func:`gate_level_check`);
    #: populated when the evaluation ran with ``gate_check=True``.
    gate_check: Optional[dict] = None

    def total_code_bits(self):
        return sum(k.code_bits for k in self.kernels.values())

    def mean_relative(self, baseline, attribute):
        """Geometric-mean ratio of a kernel attribute vs a baseline."""
        ratios = []
        for name, metrics in self.kernels.items():
            base = getattr(baseline.kernels[name], attribute)
            mine = getattr(metrics, attribute)
            if base and mine and metrics.feasible:
                ratios.append(mine / base)
        if not ratios:
            return float("nan")
        return float(np.exp(np.mean(np.log(ratios))))


@lru_cache(maxsize=None)
def _design_static(design):
    netlist = design.build_netlist()
    report = analyze(netlist)
    return netlist, report


def _run_kernel(kernel, target, transactions, seed):
    rng = np.random.default_rng(seed)
    inputs = kernel.generate_inputs(rng, transactions)
    result = kernel.check(target, inputs)
    return kernel.binary(target), result.stats


def gate_level_check(design, cycles=64, seed=2022):
    """Ground a design point's netlist in gate-level simulation.

    The analytical metrics (area, STA period, cycle models) never
    actually *run* the netlist; this does, in one simulation lane of
    :mod:`repro.netlist.backend` (so on the compiled backend, the
    lane-count rule's pick for one lane).  The baseline design -- whose
    netlist is the fabricated, ISA-verified FlexiCore4 -- is
    cross-checked against its ISA model over the directed test
    program.  The DSE netlists model hardware with no cycle-accurate
    ISA twin, so they get a random-stimulus run instead: the check
    confirms the netlist levelizes, simulates, and toggles.
    """
    backend = resolve_backend(None).name
    netlist, _ = _design_static(design)
    if design.is_baseline:
        from repro.fab.testing import directed_program
        from repro.isa import get_isa
        from repro.netlist.verify import run_cross_check

        isa = get_isa(design.isa_name)
        rng = np.random.default_rng(seed)
        inputs = [int(rng.integers(0, 16)) for _ in range(32)]
        result = run_cross_check(
            netlist, isa, directed_program(isa), inputs=inputs,
            max_instructions=120, backend=backend,
        )
        return {
            "backend": backend,
            "mode": "cross_check",
            "cycles": result.cycles,
            "mismatches": result.mismatches,
            "passed": result.passed,
            "toggle_fraction": result.toggle_fraction,
        }
    sim = make_backend(backend, netlist)
    instr_bits = sum(1 for net in netlist.inputs if net.startswith("instr"))
    iport_bits = sum(1 for net in netlist.inputs if net.startswith("iport"))
    rng = np.random.default_rng(seed)
    for _ in range(cycles):
        sim.set_inputs({
            "instr": int(rng.integers(0, 1 << instr_bits)),
            "iport": int(rng.integers(0, 1 << iport_bits)),
        })
        sim.step()
    toggled, _ = sim.toggle_coverage()
    sim.flush_obs()
    return {
        "backend": backend,
        "mode": "stimulus",
        "cycles": sim.cycles,
        "mismatches": 0,
        "passed": True,
        "toggle_fraction": toggled,
    }


def evaluate_design(design, transactions=12, seed=2022, vdd=4.5,
                    bus_bits=None, gate_check=False):
    """Measure one design point over the whole Table 6 suite.

    ``bus_bits`` restricts the program-memory bus (Figure 13's "(Bus)"
    configuration uses 8); by default each design gets a bus wide enough
    to fetch one instruction per cycle, as the paper assumes first.
    With ``gate_check=True`` the metrics also carry a
    :func:`gate_level_check` run.
    """
    started = time.perf_counter()
    with obs.span("dse.evaluate", design=design.name):
        metrics = _evaluate_design(design, transactions, seed, vdd,
                                   bus_bits)
        if gate_check:
            metrics.gate_check = gate_level_check(design, seed=seed)
    if obs.active():
        registry = obs.registry()
        registry.counter(
            "dse_designs_evaluated_total", "Design points evaluated",
        ).inc()
        registry.histogram(
            "dse_design_eval_seconds",
            "Wall time to evaluate one design point",
        ).observe(time.perf_counter() - started)
    return metrics


def _evaluate_design(design, transactions, seed, vdd, bus_bits):
    netlist, report = _design_static(design)
    punits = period_units(report, design.microarch)
    period_s = punits * SECONDS_PER_DELAY_UNIT
    frequency = 1.0 / period_s
    power = static_power_w(netlist.pullups, OperatingPoint(vdd=vdd))

    target = Target.named(design.isa_name)
    effective_bus = bus_bits if bus_bits is not None \
        else target.isa.fetch_bits

    metrics = DesignMetrics(
        design=design,
        gate_count=netlist.gate_count,
        nand2_area=netlist.nand2_area,
        area_mm2=netlist.area_mm2,
        pullups=netlist.pullups,
        static_power_w=power,
        critical_delay_units=report.critical_delay_units,
        period_units=punits,
        frequency_hz=frequency,
    )
    # A single-cycle or pipelined machine needs to fetch at least its
    # smallest instruction in one cycle; with an 8-bit bus the all-16-bit
    # load-store ISA cannot, so "the single cycle and 2-stage versions of
    # the load-store machine are not possible" (Section 6.2).  Multi-byte
    # instructions in an otherwise byte-wide ISA are fine: the FlexiCore8
    # LOAD BYTE flag generalizes to them.
    min_instr_bits = 8 * min(
        spec.size for spec in target.isa.specs.values()
    )
    design_feasible = not (
        design.microarch in (MicroArch.SINGLE_CYCLE, MicroArch.PIPELINED)
        and effective_bus < min_instr_bits
    )
    for kernel in SUITE:
        binary, stats = _run_kernel(kernel, target, transactions, seed)
        if design.microarch == MicroArch.MULTICYCLE:
            # The multicycle load-store machine trades its second register
            # port for an extra operand-read cycle (Section 6.2): CPI 3
            # (fetch, read, execute) vs the accumulator's CPI 2.
            execute_cycles = 2 if design.operand_model == "ls" else 1
            cycles = cycles_multicycle(
                stats, bus_bits=effective_bus,
                execute_cycles=execute_cycles,
            )
        else:
            cycles = cycle_count(
                stats, design.microarch, bus_bits=effective_bus,
            )
        feasible = design_feasible
        time_s = cycles * period_s
        metrics.kernels[kernel.name] = KernelMetrics(
            static_instructions=binary.static_instructions,
            code_bits=binary.size_bits,
            dynamic_instructions=stats.instructions,
            cycles=cycles,
            time_s=time_s,
            energy_j=power * time_s,
            feasible=feasible,
        )
    return metrics


@job_function("dse.evaluate_design", version="1")
def evaluate_design_job(params, seed):
    """Engine job wrapper around :func:`evaluate_design`.

    The kernel-input seed is an explicit parameter (it is part of the
    experiment's definition, not of the scheduling), so the engine-level
    ``seed`` is unused and the job is trivially order-independent.
    """
    return evaluate_design(
        params["design"],
        transactions=params["transactions"],
        seed=params["seed"],
        bus_bits=params["bus_bits"],
        gate_check=params.get("gate_check", False),
    )


def design_jobs(designs=ALL_DESIGNS, transactions=12, seed=2022,
                bus_bits=None, gate_check=False):
    """``{design name: Job}``, one :func:`evaluate_design_job` each;
    ``gate_check`` joins the cache key only when set.  A duplicate
    name raises ``ValueError``: the dict would silently collapse it."""
    designs = list(designs)
    seen = {}
    for design in designs:
        seen.setdefault(design.name, []).append(design)
    duplicates = sorted(name for name, hits in seen.items()
                        if len(hits) > 1)
    if duplicates:
        raise ValueError(
            f"duplicate design name(s) {duplicates}: the result keys "
            "by name, so duplicates would silently collapse; rename "
            "the conflicting DesignPoints"
        )
    return {
        design.name: Job(
            evaluate_design_job,
            {"design": design, "transactions": transactions,
             "seed": seed, "bus_bits": bus_bits,
             **({"gate_check": True} if gate_check else {})},
            label=f"dse:{design.name}"
                  + (f":bus{bus_bits}" if bus_bits else ""),
        )
        for design in designs
    }


def evaluate_all(designs=ALL_DESIGNS, transactions=12, seed=2022,
                 bus_bits=None, engine=None, gate_check=False):
    """Evaluate a set of designs; returns {design name: DesignMetrics}.

    Each design point is one engine job (:func:`design_jobs`): with
    ``engine`` (or the process-wide default) configured for multiple
    workers the designs evaluate in parallel, and with a cache the
    whole sweep is a lookup.
    """
    jobs = design_jobs(designs, transactions, seed, bus_bits, gate_check)
    results = engine_or_default(engine).run(list(jobs.values()),
                                            stage="dse")
    return dict(zip(jobs, results))

"""Wafer fabrication and probing Monte Carlo (Sections 4.1 and 4.2).

:func:`fabricate_wafer` rolls one wafer: every die site draws a Poisson
defect count (density scaled up in the edge-exclusion ring), a lognormal
speed factor (how much slower than typical its critical path is) and a
lognormal static-current factor with a mild radial gradient.

:meth:`FabricatedWafer.probe` then reproduces the paper's test flow at a
chosen supply voltage: a die passes when it has zero defects *and* its
process corner meets the 12.5 kHz test clock at that voltage.  Failing
dies report a nonzero output-error count over the ~100,000-cycle vector
suite (Figure 6's wafer maps); every probed die reports a current draw
(Figure 7's maps and the Section 4.2 variation study).

:func:`gate_probe_wafer` replaces the analytic pass/fail model with an
actual gate-level campaign: each die's defect draw becomes stuck-at
faults in one simulation lane of a vector backend, and the dies of
several wafers share one campaign, each lane fed its own wafer's IPORT
samples.  A full Table 5 yield study (:func:`run_gate_yield_study`) is
thus *simulated* die by die in one campaign per engine worker, with
every die replayable bit-for-bit against the interpreted reference.
"""

import math
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro import obs
from repro.engine import Job, engine_or_default, job_function, spawn_seeds
from repro.fab.process import WaferProcess
from repro.fab.testing import fault_study_job
from repro.fab.wafer import Wafer
from repro.netlist.backend import resolve_backend
from repro.netlist.cores import CORE_BUILDERS, core_netlist, core_timing
from repro.netlist.verify import run_cross_check_batch
from repro.tech import tft
from repro.tech.power import FMAX_HZ, OperatingPoint, static_power_w

#: Cycles in the probe vector suite (Section 4.1: "over 100,000 cycles").
TEST_CYCLES = 100_000


@dataclass
class Die:
    """One fabricated die's latent process draw."""

    site: object
    defects: int
    speed_factor: float
    current_factor: float

    @property
    def has_defect(self):
        return self.defects > 0


@dataclass
class ProbeRecord:
    """Result of probing one die at one voltage."""

    site: object
    functional: bool
    errors: int
    current_ma: float
    failure_mode: Optional[str]  # None | 'defect' | 'timing'


@dataclass
class WaferProbeResult:
    """All probe records for one wafer at one voltage."""

    voltage: float
    records: List[ProbeRecord]

    def _subset(self, inclusion_only):
        if not inclusion_only:
            return self.records
        return [r for r in self.records if r.site.in_inclusion_zone]

    def yield_fraction(self, inclusion_only=True):
        subset = self._subset(inclusion_only)
        if not subset:
            return 0.0
        passing = sum(1 for record in subset if record.functional)
        return passing / len(subset)

    def functional_currents_ma(self, inclusion_only=True):
        return np.array([
            record.current_ma for record in self._subset(inclusion_only)
            if record.functional
        ])

    def current_statistics(self, inclusion_only=True):
        """(mean mA, std mA, relative std) over functional dies --
        the Section 4.2 process-variation metrics."""
        currents = self.functional_currents_ma(inclusion_only)
        if len(currents) == 0:
            return 0.0, 0.0, 0.0
        mean = float(np.mean(currents))
        std = float(np.std(currents))
        return mean, std, (std / mean if mean else 0.0)

    def error_map(self):
        """{(row, col): errors} for rendering the Figure 6 wafer maps."""
        return {
            (record.site.row, record.site.col): record.errors
            for record in self.records
        }

    def current_map(self):
        """{(row, col): mA} for the Figure 7 wafer maps."""
        return {
            (record.site.row, record.site.col): record.current_ma
            for record in self.records
        }


@dataclass
class FabricatedWafer:
    """One wafer of dies plus the design knowledge needed to probe them."""

    wafer: Wafer
    process: WaferProcess
    dies: List[Die]
    base_pullups: int
    timing_report: object  # repro.netlist.sta.TimingReport

    def probe(self, voltage, rng, frequency_hz=FMAX_HZ):
        """Probe every die at ``voltage`` (the paper probes 3 V and 4.5 V).

        Field-batched Monte Carlo: every noise field is a single
        generator call over all die sites (one defect-error draw, one
        timing-error draw, one defect-current draw), and the
        pass/fail classification runs as array arithmetic.  The scalar
        path drew lazily per failing die, so the random stream is
        consumed in a different order -- the distributions are
        identical, and the Table 5 calibration tests pin the result.
        """
        point = OperatingPoint(
            vdd=voltage, refined_pullups=self.process.refined_pullups
        )
        base_power = static_power_w(self.base_pullups, point)
        dies = self.dies
        n = len(dies)
        speed = np.array([die.speed_factor for die in dies])
        defects = np.array([die.defects for die in dies])
        factors = np.array([die.current_factor for die in dies])
        has_defect = defects > 0
        # ``period_s`` associates as ((units*SPD)*delay_factor)*speed,
        # so base_period * speed is float-identical to the per-die call.
        base_period = self.timing_report.period_s(voltage, 1.0)
        meets_timing = 1.0 / (base_period * speed) >= frequency_hz
        functional = ~has_defect & meets_timing
        # A structural fault corrupts a large share of vectors; a
        # timing miss produces errors growing with the shortfall.
        defect_noise = np.exp(rng.normal(9.0, 1.8, size=n))
        timing_noise = np.exp(rng.normal(7.0, 1.2, size=n))
        current_noise = np.exp(rng.normal(0.0, 0.35, size=n))
        defect_errors = np.maximum(
            np.minimum(TEST_CYCLES, defect_noise * defects)
            .astype(np.int64),
            1,
        )
        shortfall = base_period * speed * frequency_hz - 1.0
        timing_errors = np.minimum(
            TEST_CYCLES, np.maximum(1.0, shortfall * timing_noise)
        ).astype(np.int64)
        # P ~ V^2 through the pull-ups, so I = P/V scales linearly in
        # V -- matching the measured 1.1 mA @ 4.5 V vs 0.73 mA @ 3 V.
        # Shorts/opens push a defective die's current either way.
        current_a = base_power / voltage * factors
        current_ma = np.where(
            has_defect, current_a * current_noise, current_a
        ) * 1e3

        records = []
        for index, die in enumerate(dies):
            if functional[index]:
                errors = 0
                mode = None
            elif has_defect[index]:
                errors = int(defect_errors[index])
                mode = "defect"
            else:
                errors = int(timing_errors[index])
                mode = "timing"
            records.append(ProbeRecord(
                site=die.site,
                functional=bool(functional[index]),
                errors=errors,
                current_ma=float(current_ma[index]),
                failure_mode=mode,
            ))
        result = WaferProbeResult(voltage=voltage, records=records)
        if obs.active():
            _fold_probe(result)
        return result


def _fold_probe(result):
    """Per-wafer die pass/fail/timing counters, labelled by voltage."""
    registry = obs.registry()
    voltage = f"{result.voltage:g}"
    probed = registry.counter(
        "fab_dies_probed_total", "Dies probed, by test voltage",
    )
    passed = registry.counter(
        "fab_dies_pass_total", "Functional dies, by test voltage",
    )
    failed = registry.counter(
        "fab_die_failures_total",
        "Non-functional dies by failure mode and test voltage",
    )
    probed.inc(len(result.records), voltage=voltage)
    for record in result.records:
        if record.functional:
            passed.inc(voltage=voltage)
        else:
            failed.inc(mode=record.failure_mode or "unknown",
                       voltage=voltage)
    registry.counter(
        "fab_wafers_probed_total", "Wafer probe passes, by voltage",
    ).inc(voltage=voltage)


def fabricate_wafer(netlist, process, rng, wafer=None, timing_report=None):
    """Roll one wafer of ``netlist`` dies under ``process``.

    Field-batched: one Poisson draw over every die site's defect rate,
    one lognormal draw per variation field (speed, static current), so
    a wafer costs three generator calls instead of three per die.  The
    per-die draw order of the scalar version is not preserved; the
    distributions are, and the calibration tests pin the Table 5
    yields and current spreads.
    """
    from repro.netlist.sta import analyze

    wafer = wafer or Wafer.standard()
    timing_report = timing_report or analyze(netlist)
    area_mm2 = netlist.area_mm2
    sites = wafer.sites
    radius = max(site.radius_mm for site in sites) or 1.0
    edge = np.array([not site.in_inclusion_zone for site in sites])
    density = np.where(
        edge,
        process.defect_density_per_mm2 * process.edge_defect_multiplier,
        process.defect_density_per_mm2,
    )
    speed_mu = np.where(edge, math.log(process.edge_speed_penalty), 0.0)
    radii = np.array([site.radius_mm for site in sites])
    radial = 1.0 + process.radial_current_gradient * (radii / radius) ** 2

    defects = rng.poisson(density * area_mm2)
    speeds = np.exp(rng.normal(speed_mu, process.speed_sigma))
    currents = radial * np.exp(
        rng.normal(0.0, process.current_sigma, size=len(sites))
    )
    dies = [
        Die(
            site=site, defects=int(defect),
            speed_factor=float(speed), current_factor=float(current),
        )
        for site, defect, speed, current
        in zip(sites, defects, speeds, currents)
    ]
    return FabricatedWafer(
        wafer=wafer, process=process, dies=dies,
        base_pullups=netlist.pullups, timing_report=timing_report,
    )


def _probe_bucket(probe):
    """Compact pass/current summary of one probed wafer at one voltage."""
    bucket = {"full_pass": 0, "full_total": 0,
              "incl_pass": 0, "incl_total": 0, "currents": []}
    for record in probe.records:
        bucket["full_total"] += 1
        bucket["full_pass"] += record.functional
        if record.site.in_inclusion_zone:
            bucket["incl_total"] += 1
            bucket["incl_pass"] += record.functional
            if record.functional:
                bucket["currents"].append(record.current_ma)
    return bucket


def merge_buckets(per_wafer, voltages):
    """Fold per-wafer buckets into the Table 5 summary, in wafer order
    (so the result is independent of execution order)."""
    summary = {}
    for voltage in voltages:
        merged = {"full_pass": 0, "full_total": 0,
                  "incl_pass": 0, "incl_total": 0, "currents": []}
        for buckets in per_wafer:
            bucket = buckets[voltage]
            for count in ("full_pass", "full_total",
                          "incl_pass", "incl_total"):
                merged[count] += bucket[count]
            merged["currents"].extend(bucket["currents"])
        currents = np.array(merged["currents"])
        mean = float(np.mean(currents)) if len(currents) else 0.0
        std = float(np.std(currents)) if len(currents) else 0.0
        summary[voltage] = {
            "full": merged["full_pass"] / max(1, merged["full_total"]),
            "inclusion": (
                merged["incl_pass"] / max(1, merged["incl_total"])
            ),
            "mean_current_ma": mean,
            "std_current_ma": std,
            "rsd": std / mean if mean else 0.0,
        }
    return summary


@job_function("fab.wafer_yield", version="2")
def wafer_yield_job(params, seed):
    """Engine job: fabricate one wafer of ``params['core']`` and probe
    it at every voltage, returning compact per-voltage buckets.

    Version 2: the wafer Monte Carlo draws are field-batched, which
    consumes the seed stream in a different order than version 1 --
    the version bump invalidates cached version-1 wafers so a cached
    sweep can never mix the two draw orders.
    """
    with obs.span("fab.wafer_yield", core=params["core"]):
        netlist = core_netlist(params["core"])
        report = core_timing(params["core"])
        rng = seed.rng()
        with obs.span("fab.fabricate", core=params["core"]):
            fabricated = fabricate_wafer(
                netlist, params["process"], rng, timing_report=report
            )
        buckets = {}
        for voltage in params["voltages"]:
            with obs.span("fab.probe", voltage=voltage):
                buckets[voltage] = _probe_bucket(
                    fabricated.probe(voltage, rng)
                )
        return buckets


@job_function("fab.probed_wafer", version="2")
def probed_wafer_job(params, seed):
    """Engine job: one fabricated wafer with its full probe records
    (the Figure 6/7 wafer maps need every die, not just the counts).

    Version 2: field-batched Monte Carlo draws (see
    :func:`wafer_yield_job`)."""
    with obs.span("fab.probed_wafer", core=params["core"]):
        netlist = core_netlist(params["core"])
        report = core_timing(params["core"])
        rng = seed.rng()
        with obs.span("fab.fabricate", core=params["core"]):
            fabricated = fabricate_wafer(
                netlist, params["process"], rng, timing_report=report
            )
        probes = {}
        for voltage in params["voltages"]:
            with obs.span("fab.probe", voltage=voltage):
                probes[voltage] = fabricated.probe(voltage, rng)
        return {"fabricated": fabricated, "probes": probes}


def gate_probe_wafer(netlist, isa, wafers, voltages=(3.0, 4.5), *,
                     backend=None, max_instructions=120,
                     frequency_hz=FMAX_HZ):
    """Probe every die of several wafers *gate-level*: one lane per die.

    ``wafers`` is a sequence of ``(FabricatedWafer, rng)`` pairs.  Each
    wafer draws from its own generator, in this order: every die's
    latent Poisson defect count materialized as that many distinct
    stuck-at sites (its whole multi-defect draw occupying one lane),
    the wafer's 64 IPORT samples, then the defect current noise.  All
    dies of all wafers then run as a single
    :func:`~repro.netlist.verify.run_cross_check_batch` campaign, each
    lane fed its own wafer's IPORT stream -- under the vector backend
    (``backend=None`` picks it for more than 64 dies), one settle pass
    advances every die at once.  Only mismatch counts are read, so the
    campaign counts no toggles.  The campaign draws no randomness, so
    a wafer's draws and results do not depend on which wafers share
    its campaign.  Mismatch counts are voltage-independent (a stuck
    gate fails the vectors at any supply), so one gate campaign serves
    every probe voltage; timing is classified analytically per voltage
    from the die's speed factor, exactly as
    :meth:`FabricatedWafer.probe` does.

    Returns one ``(probes, campaign)`` pair per wafer: ``probes`` maps
    voltage to a :class:`WaferProbeResult` whose error counts are the
    *gate-level* mismatch tallies (the Figure 6 maps, simulated rather
    than drawn from the error-noise model), and ``campaign`` records
    the wafer's stimulus (IPORT samples, instruction budget) plus
    per-die fault sites and mismatch counts -- everything needed to
    replay any die against the interpreted reference bit for bit.
    Note a defective die whose faults the vectors never observe counts
    *functional* here (a test escape); the analytic model's yield is a
    lower bound on this one.
    """
    from repro.fab.testing import directed_program, sample_fault_sites

    draws = []
    for fabricated, rng in wafers:
        faults = [
            sample_fault_sites(netlist, rng, die.defects) if die.defects
            else None
            for die in fabricated.dies
        ]
        inputs = [int(value) for value in rng.integers(0, 16, size=64)]
        current_noise = np.exp(
            rng.normal(0.0, 0.35, size=len(fabricated.dies))
        )
        draws.append((fabricated, faults, inputs, current_noise))

    lane_faults = [fault for _, faults, _, _ in draws for fault in faults]
    lane_inputs = [inputs for _, faults, inputs, _ in draws
                   for _ in faults]
    with obs.span("fab.gate_probe", dies=len(lane_faults),
                  backend=resolve_backend(backend, len(lane_faults)).name):
        outcomes = run_cross_check_batch(
            netlist, isa, directed_program(isa),
            max_instructions=max_instructions, faults=lane_faults,
            backend=backend, lane_inputs=lane_inputs, toggles=False,
        )
    mismatches = np.array(
        [outcome.mismatches for outcome in outcomes], dtype=np.int64
    )
    results = []
    start = 0
    for fabricated, faults, inputs, current_noise in draws:
        stop = start + len(faults)
        results.append(_classify_gate_wafer(
            fabricated, faults, inputs, current_noise,
            mismatches[start:stop], voltages, max_instructions,
            frequency_hz,
        ))
        start = stop
    return results


def _classify_gate_wafer(fabricated, faults, inputs, current_noise,
                         mismatches, voltages, max_instructions,
                         frequency_hz):
    """One wafer's ``(probes, campaign)`` from its gate-level mismatch
    counts (see :func:`gate_probe_wafer`)."""
    dies = fabricated.dies
    speed = np.array([die.speed_factor for die in dies])
    factors = np.array([die.current_factor for die in dies])
    has_defect = np.array([die.has_defect for die in dies])
    probes = {}
    for voltage in voltages:
        point = OperatingPoint(
            vdd=voltage, refined_pullups=fabricated.process.refined_pullups
        )
        base_power = static_power_w(fabricated.base_pullups, point)
        base_period = fabricated.timing_report.period_s(voltage, 1.0)
        meets_timing = 1.0 / (base_period * speed) >= frequency_hz
        functional = (mismatches == 0) & meets_timing
        shortfall = base_period * speed * frequency_hz - 1.0
        current_a = base_power / voltage * factors
        current_ma = np.where(
            has_defect, current_a * current_noise, current_a
        ) * 1e3
        records = []
        for index, die in enumerate(dies):
            if functional[index]:
                errors, mode = 0, None
            elif mismatches[index]:
                errors, mode = int(mismatches[index]), "defect"
            else:
                # Deterministic timing-shortfall error count: the gate
                # simulation is zero-delay, so a timing miss is scored
                # from the analytic shortfall, noise-free.
                errors = int(min(
                    TEST_CYCLES,
                    max(1.0, round(shortfall[index] * TEST_CYCLES)),
                ))
                mode = "timing"
            records.append(ProbeRecord(
                site=die.site,
                functional=bool(functional[index]),
                errors=errors,
                current_ma=float(current_ma[index]),
                failure_mode=mode,
            ))
        result = WaferProbeResult(voltage=voltage, records=records)
        if obs.active():
            _fold_probe(result)
        probes[voltage] = result

    campaign = {
        "inputs": inputs,
        "max_instructions": max_instructions,
        "dies": [
            {
                "row": die.site.row,
                "col": die.site.col,
                "inclusion": bool(die.site.in_inclusion_zone),
                "defects": die.defects,
                "fault_sites": list(faults[index]) if faults[index] else [],
                "mismatches": int(mismatches[index]),
                "speed_factor": die.speed_factor,
            }
            for index, die in enumerate(dies)
        ],
    }
    return probes, campaign


@job_function("fab.gate_yield_campaign", version="1")
def gate_yield_campaign_job(params, seed):
    """Engine job: fabricate a range of a study's wafers and probe all
    their dies gate-level as one campaign.

    ``seed`` is the study seed and ``params["wafers"]`` the
    ``(first, stop)`` wafer range: wafer ``i`` draws from the study
    seed's ``i``-th spawn child, so a wafer's results do not depend on
    how the study was split.  The whole range is one simulation
    campaign (one lane per die, see :func:`gate_probe_wafer`).  Returns
    one entry per wafer, in order: the per-voltage Table 5 buckets, the
    gate-level Figure 6 error maps, and per-die records (fault sites,
    mismatch counts) sufficient to replay any die against the
    interpreted reference.
    """
    from repro.isa import get_isa

    first, stop = params["wafers"]
    with obs.span("fab.gate_yield_campaign", core=params["core"],
                  wafers=stop - first):
        netlist = core_netlist(params["core"])
        report = core_timing(params["core"])
        wafers = []
        for child in seed.spawn(stop)[first:]:
            rng = child.rng()
            with obs.span("fab.fabricate", core=params["core"]):
                fabricated = fabricate_wafer(
                    netlist, params["process"], rng, timing_report=report
                )
            wafers.append((fabricated, rng))
        probed = gate_probe_wafer(
            netlist, get_isa(params["isa"]), wafers,
            voltages=params["voltages"],
            backend=params["backend"],
            max_instructions=params.get("max_instructions", 120),
        )
        return [
            {
                "buckets": {
                    voltage: _probe_bucket(probe)
                    for voltage, probe in probes.items()
                },
                "error_maps": {
                    voltage: {
                        f"{row},{col}": errors
                        for (row, col), errors
                        in probe.error_map().items()
                    }
                    for voltage, probe in probes.items()
                },
                "inputs": campaign["inputs"],
                "max_instructions": campaign["max_instructions"],
                "dies": campaign["dies"],
            }
            for probes, campaign in probed
        ]


def run_gate_yield_study(process, *, seed, core="flexicore4", wafers=5,
                         voltages=(3.0, 4.5), backend=None,
                         max_instructions=120, engine=None):
    """The Table 5 study with every die *simulated*, not modelled.

    The wafers split into ``min(engine.jobs, wafers)`` contiguous
    ranges, one :func:`gate_yield_campaign_job` each, so every worker
    runs its share as a single gate-level campaign through ``backend``
    (``None`` picks it from the die count: ``"vector"`` for full
    124-die wafers).  Wafer ``i`` always draws from the seed's ``i``-th
    spawn child, so the result is the same for every worker count.
    Returns ``{"summary": {voltage: table5_row}, "wafers": [per-wafer
    results]}`` -- the summary matches :func:`run_yield_study`'s shape,
    the wafer entries carry the gate-level Figure 6 error maps and the
    per-die fault sites needed to cross-check sampled dies against the
    interpreted reference.
    """
    eng = engine_or_default(engine)
    shards = min(eng.jobs, wafers)
    jobs = []
    for index in range(shards):
        first, stop = wafers * index // shards, wafers * (index + 1) // shards
        jobs.append(Job(
            gate_yield_campaign_job,
            {"core": core, "isa": core, "process": process,
             "voltages": tuple(voltages), "backend": backend,
             "max_instructions": max_instructions,
             "wafers": (first, stop)},
            seed=seed,
            label=f"{core}:gate-wafers{first}-{stop - 1}",
        ))
    campaigns = eng.run(jobs, stage=f"gate-yield:{core}")
    results = [wafer for campaign in campaigns for wafer in campaign]
    summary = merge_buckets(
        [result["buckets"] for result in results], tuple(voltages)
    )
    return {"summary": summary, "wafers": results}


def run_fault_coverage(cores=("flexicore4", "flexicore8"), *, seed,
                       faults=20, max_instructions=300, engine=None):
    """Measured stuck-at fault coverage per core, through the engine.

    The yield model assumes any structural defect makes a die
    non-functional; this runs the Section 4.1 fault-injection campaign
    (one engine job per core, one fault per simulation lane) to
    measure how often the probe vectors would actually observe a
    defect.  Returns ``{core: {"injected": n, "detected": n,
    "coverage": fraction, "details": [...]}}``.
    """
    results = engine_or_default(engine).run([
        _fault_job(core, child, faults, max_instructions)
        for core, child in zip(cores, spawn_seeds(seed, len(cores)))
    ], stage="fault-coverage")
    return dict(zip(cores, results))


def _fault_job(core, child, faults, max_instructions):
    """The fault-injection campaign job for one core.

    Shared by :func:`run_fault_coverage` and :func:`run_yield_study`'s
    fault check so both address the same cache entries.
    """
    return Job(
        fault_study_job,
        {"core": core, "isa": core, "faults": faults,
         "max_instructions": max_instructions},
        seed=child,
        label=f"faults:{core}",
    )


def wafer_yield_jobs(process, *, seed, core, wafers,
                     voltages=(3.0, 4.5)):
    """A yield study's wafer jobs as ``{wafer index: Job}``: wafer
    ``i`` draws from the ``i``-th ``SeedSequence.spawn`` child of
    ``seed`` (int or :class:`~repro.engine.ChildSeed`)."""
    return {
        index: Job(
            wafer_yield_job,
            {"core": core, "process": process,
             "voltages": tuple(voltages)},
            seed=child,
            label=f"{core}:wafer{index}",
        )
        for index, child in enumerate(spawn_seeds(seed, wafers))
    }


def run_yield_study(netlist, process, *, seed, wafers=5,
                    voltages=(3.0, 4.5), core=None, engine=None,
                    fault_check=0):
    """Monte Carlo over several wafers: the Table 5 numbers.

    Returns {voltage: {"full": fraction, "inclusion": fraction,
    "mean_current_ma": .., "rsd": ..}} aggregated over wafers.
    With ``fault_check=N`` the summary also carries a
    ``"fault_coverage"`` entry: an N-fault injection campaign on the
    core that grounds the defect=non-functional assumption.

    ``seed`` (int or :class:`~repro.engine.ChildSeed`) seeds the study:
    each wafer draws from its own ``SeedSequence.spawn`` child, and the
    wafers run as engine jobs (:func:`wafer_yield_jobs`) -- parallel
    over ``--jobs`` workers, cached on disk, and bit-for-bit identical
    to the serial run.  Jobs rebuild the netlist in the worker, so
    ``core`` must name a registered core builder (default
    ``netlist.name``).
    """
    core = core or getattr(netlist, "name", None)
    if core not in CORE_BUILDERS:
        raise ValueError(
            f"a yield study needs a registered core name (one of "
            f"{', '.join(sorted(CORE_BUILDERS))}), got {core!r}"
        )
    jobs = list(wafer_yield_jobs(process, seed=seed, core=core,
                                 wafers=wafers, voltages=voltages).values())
    # The fault campaign draws from the spare child after the wafers',
    # so the two studies never share a seed stream.  It is the long
    # pole, so it goes first in the batch (and is dispatched first);
    # the wafer jobs pack in around it on the remaining workers.
    if fault_check:
        jobs.insert(0, _fault_job(core, spawn_seeds(seed, wafers + 1)[-1],
                                  fault_check, 300))
    results = engine_or_default(engine).run(jobs, stage=f"yield:{core}")
    coverage = results.pop(0) if fault_check else None
    summary = merge_buckets(results, tuple(voltages))
    if coverage is not None:
        summary["fault_coverage"] = coverage
    return summary

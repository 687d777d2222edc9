"""Named job types: validated parameter schemas over the engine.

Every service job is a *named type* with a declared schema -- the
service never executes caller-supplied code.  A schema maps parameter
names to :class:`~repro.params.Field` declarations; ``dse_search`` and
``conformance`` take theirs from :mod:`repro.params`, which ``repro``
builds its flags from too.  A runner receives its validated parameters
plus a :class:`JobContext` and returns ``(result_document, artifacts)``
where artifacts is a list of ``(name, content_type, payload)`` tuples.

Built-in types:

``yield_study``   the Table 5 wafer Monte Carlo for one core
``wafer_maps``    the Figure 6/7 error/current wafer maps for one core
``dse_sweep``     ``dse.evaluate_design`` over named design points
``conformance``   a differential-testing campaign (always cache-less)
``kernel_run``    one Table 6 kernel checked against its golden model

All of them execute through a per-job :class:`~repro.engine.Engine`
sharing the service-wide :class:`~repro.engine.ResultCache`, so a
repeat submission -- same type, same parameters -- is answered from
cache in milliseconds and reported with ``cache_hit: true``.

The registry is open: :func:`register_job_type` adds new types at
runtime (tests register a ``sleep`` type to exercise queue behavior).
"""

import json
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.engine import Engine, Job, spawn_seeds
from repro.params import (
    CONFORMANCE,
    DSE_SEARCH,
    SEED,
    Field,
    ValidationError,
    validate_params,  # noqa: F401  (re-exported)
)


# ----------------------------------------------------------------------
# Job context: what a runner may touch.
# ----------------------------------------------------------------------

class JobContext:
    """Execution facilities handed to a job runner.

    ``engine()`` builds the job's engine exactly once -- bound to the
    shared service cache (or cache-less on request) and registered on
    the job record so a cancel request reaches the in-flight run.
    """

    def __init__(self, record, cache, engine_jobs=1):
        self.record = record
        self._cache = cache
        self._engine_jobs = engine_jobs
        self._engine = None

    def engine(self, cache=True):
        if self._engine is None:
            self._engine = Engine(
                jobs=self._engine_jobs,
                cache=self._cache if cache else None,
            )
            self.record.engine = self._engine
        return self._engine

    def emit(self, event, **fields):
        self.record.emit(event, **fields)

    @property
    def cache_hit(self):
        """True when every engine job of this run came from the
        cache: some hits and no misses."""
        engine = self._engine
        if engine is None or engine.cache is None:
            return False
        return (engine.metrics.cache_hits > 0
                and engine.metrics.cache_misses == 0)


# ----------------------------------------------------------------------
# Registry.
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class JobType:
    name: str
    description: str
    schema: dict
    runner: Callable  # (params, context) -> (result, artifacts)


_JOB_TYPES = {}


def register_job_type(name, description, schema, runner):
    """Add (or replace) a job type; returns the :class:`JobType`."""
    jobtype = JobType(name, description, dict(schema), runner)
    _JOB_TYPES[name] = jobtype
    return jobtype


def job_types():
    """{name: JobType} snapshot of the registry."""
    return dict(_JOB_TYPES)


def get_job_type(name):
    try:
        return _JOB_TYPES[name]
    except KeyError:
        raise ValidationError(
            f"unknown job type {name!r}; "
            f"available: {sorted(_JOB_TYPES)}"
        ) from None


def describe_job_types():
    """The ``GET /v1/types`` document."""
    doc = {}
    for name, jobtype in sorted(_JOB_TYPES.items()):
        doc[name] = {
            "description": jobtype.description,
            "params": {field: spec.describe()
                       for field, spec in jobtype.schema.items()},
        }
    return doc


# ----------------------------------------------------------------------
# Choice providers (lazy so importing this module stays cheap).
# ----------------------------------------------------------------------

def _core_names():
    from repro.netlist.cores import CORE_BUILDERS

    return tuple(sorted(CORE_BUILDERS))


def _kernel_names():
    from repro.kernels.suite import kernel_names

    return kernel_names()


def _isa_names():
    from repro.isa import available_isas

    return tuple(available_isas())


def _design_names():
    from repro.dse.designs import ALL_DESIGNS

    return tuple(design.name for design in ALL_DESIGNS)


# ----------------------------------------------------------------------
# Built-in runners.
# ----------------------------------------------------------------------

def _json_voltage_summary(summary):
    """Voltage-keyed study summary with string keys (JSON-stable)."""
    out = {}
    for voltage, bucket in summary.items():
        if not isinstance(voltage, (int, float)):
            continue
        out[f"{voltage:g}"] = {
            key: float(value) for key, value in bucket.items()
        }
    return out


def _run_yield_study(params, ctx):
    from repro.fab.process import process_for
    from repro.fab.yield_model import run_yield_study

    core = params["core"]
    summary = run_yield_study(
        None, process_for(core), wafers=params["wafers"],
        voltages=tuple(params["voltages"]),
        seed=params["seed"], core=core, engine=ctx.engine(),
        fault_check=params["fault_check"],
    )
    result = {
        "core": core,
        "wafers": params["wafers"],
        "seed": params["seed"],
        "summary": _json_voltage_summary(summary),
    }
    coverage = summary.get("fault_coverage")
    if coverage:
        result["fault_coverage"] = {
            "injected": coverage["injected"],
            "detected": coverage["detected"],
            "coverage": coverage["coverage"],
        }
    lines = [
        f"yield study: {core}, {params['wafers']} wafer(s), "
        f"seed {params['seed']}",
        f"{'voltage':<9} {'full':>7} {'incl':>7} {'mean mA':>9} "
        f"{'rsd':>7}",
    ]
    for voltage, bucket in sorted(result["summary"].items(),
                                  key=lambda kv: float(kv[0])):
        lines.append(
            f"{voltage + ' V':<9} {100 * bucket['full']:6.1f}% "
            f"{100 * bucket['inclusion']:6.1f}% "
            f"{bucket['mean_current_ma']:9.3f} "
            f"{100 * bucket['rsd']:6.1f}%"
        )
    if coverage:
        lines.append(
            f"fault coverage: {coverage['detected']}/"
            f"{coverage['injected']} detected "
            f"({100 * coverage['coverage']:.0f}%)"
        )
    text = "\n".join(lines) + "\n"
    return result, [("yield_study.txt", "text/plain; charset=utf-8",
                     text)]


def _run_wafer_maps(params, ctx):
    from repro.experiments import figures
    from repro.fab.process import process_for
    from repro.fab.yield_model import probed_wafer_job

    core = params["core"]
    voltages = tuple(params["voltages"])
    (child,) = spawn_seeds(params["seed"], 1)
    job = Job(
        probed_wafer_job,
        {"core": core, "process": process_for(core),
         "voltages": voltages},
        seed=child, label=f"maps:{core}",
    )
    probes = ctx.engine().run([job], stage=f"maps:{core}")[0]["probes"]
    result = {"core": core, "seed": params["seed"], "voltages": {}}
    artifacts = []
    error_parts = [f"Figure 6 (errors/die): {core}"]
    current_parts = [f"Figure 7 (current mA/die): {core}"]
    for voltage in voltages:
        probe = probes[voltage]
        error_map = probe.error_map()
        current_map = probe.current_map()
        mean, std, rsd = probe.current_statistics()
        result["voltages"][f"{voltage:g}"] = {
            "yield": probe.yield_fraction(),
            "mean_current_ma": mean,
            "rsd": rsd,
            "dies": len(probe.records),
        }
        error_parts.append(f"\n-- {voltage:g} V --")
        error_parts.append(figures.render_grid(error_map,
                                               figures.render_error_cell))
        current_parts.append(
            f"\n-- {voltage:g} V: mean {mean:.2f} mA, "
            f"rsd {100 * rsd:.1f}% --"
        )
        current_parts.append(figures.render_grid(
            current_map, figures.render_current_cell))
    artifacts.append(("figure6.txt", "text/plain; charset=utf-8",
                      "\n".join(error_parts) + "\n"))
    artifacts.append(("figure7.txt", "text/plain; charset=utf-8",
                      "\n".join(current_parts) + "\n"))
    artifacts.append((
        "wafer_maps.json", "application/json",
        json.dumps(result, indent=2),
    ))
    return result, artifacts


def _run_dse_sweep(params, ctx):
    from repro.dse.designs import ALL_DESIGNS
    from repro.dse.evaluate import evaluate_all

    by_name = {d.name: d for d in ALL_DESIGNS}
    names = params["designs"] or list(by_name)
    selection = [by_name[n] for n in names]
    evaluated = evaluate_all(
        designs=selection, transactions=params["transactions"],
        seed=params["seed"], bus_bits=params["bus_bits"] or None,
        gate_check=params["gate_check"], engine=ctx.engine(),
    )
    result = {"designs": {}}
    for name, metrics in evaluated.items():
        entry = {
            "gate_count": metrics.gate_count,
            "nand2_area": metrics.nand2_area,
            "area_mm2": metrics.area_mm2,
            "static_power_w": metrics.static_power_w,
            "period_units": metrics.period_units,
            "frequency_hz": metrics.frequency_hz,
            "kernels": {
                kname: {
                    "static_instructions": k.static_instructions,
                    "code_bits": k.code_bits,
                    "dynamic_instructions": k.dynamic_instructions,
                    "cycles": k.cycles,
                    "time_s": k.time_s,
                    "energy_j": k.energy_j,
                    "feasible": k.feasible,
                }
                for kname, k in metrics.kernels.items()
            },
        }
        if metrics.gate_check is not None:
            entry["gate_check"] = metrics.gate_check
        result["designs"][name] = entry
    lines = [
        f"DSE sweep: {len(result['designs'])} design(s), "
        f"transactions {params['transactions']}, seed {params['seed']}",
        f"{'design':<14} {'gates':>7} {'NAND2':>8} {'freq kHz':>9} "
        f"{'power mW':>9}",
    ]
    for name in names:
        entry = result["designs"][name]
        lines.append(
            f"{name:<14} {entry['gate_count']:7d} "
            f"{entry['nand2_area']:8.0f} "
            f"{entry['frequency_hz'] / 1e3:9.2f} "
            f"{entry['static_power_w'] * 1e3:9.3f}"
        )
    return result, [("dse_sweep.txt", "text/plain; charset=utf-8",
                     "\n".join(lines) + "\n")]


def _run_dse_search(params, ctx):
    from repro.dse.search import run_dse_search

    result, frontier, trail = run_dse_search(params, ctx.engine())
    return result.to_doc(), [
        ("dse_search.txt", "text/plain; charset=utf-8", frontier + "\n"),
        ("dse_search_trail.jsonl", "application/jsonl", trail),
    ]


def _run_conformance(params, ctx):
    from repro.conformance import format_campaign, run_campaign

    summary = run_campaign(
        params["seed"], params["budget"],
        oracle_names=params["oracles"] or None,
        # A conformance campaign must execute its cases, never replay
        # a previous campaign's cached verdicts -- and it must not
        # leave corpus files on the server for every fuzz request.
        engine=ctx.engine(cache=False),
        persist=False,
    )
    result = {
        "cases": summary["cases"],
        "elapsed_s": summary["elapsed_s"],
        "slices": summary["slices"],
        "divergences": [
            {"id": entry.get("id"),
             "divergence": entry.get("divergence")}
            for entry in summary["divergences"]
        ],
    }
    text = format_campaign(summary, params["seed"], params["budget"])
    return result, [("conformance.txt", "text/plain; charset=utf-8",
                     text + "\n")]


from repro.engine import job_function  # noqa: E402


@job_function("service.kernel_run", version="1")
def kernel_run_job(params, seed):
    """Engine job: run one Table 6 kernel against its golden model.

    The engine-level ``seed`` is unused -- the input draw seed is an
    explicit parameter (part of the experiment's definition), keeping
    the job order-independent and its cache key fully explicit.
    """
    from repro.kernels.kernel import Target
    from repro.kernels.suite import get_kernel

    kernel = get_kernel(params["kernel"])
    target = Target.named(params["isa"])
    rng = np.random.default_rng(params["seed"])
    inputs = kernel.generate_inputs(rng, params["transactions"])
    result = kernel.check(target, inputs)
    binary = kernel.binary(target)
    return {
        "kernel": kernel.name,
        "isa": target.name,
        "transactions": params["transactions"],
        "inputs": len(inputs),
        "static_instructions": binary.static_instructions,
        "code_bytes": binary.size_bytes,
        "dynamic_instructions": result.instructions,
        "reason": result.reason,
        "checked": True,
    }


def _run_kernel(params, ctx):
    job = Job(
        kernel_run_job,
        {"kernel": params["kernel"], "isa": params["isa"],
         "transactions": params["transactions"],
         "seed": params["seed"]},
        label=f"kernel:{params['kernel']}:{params['isa']}",
    )
    result = ctx.engine().run([job], stage="kernel")[0]
    text = (
        f"{result['kernel']} on {result['isa']}: "
        f"{result['dynamic_instructions']} instructions over "
        f"{result['transactions']} transaction(s) ({result['reason']}), "
        f"{result['static_instructions']} static / "
        f"{result['code_bytes']} bytes, golden model OK\n"
    )
    return result, [("kernel_run.txt", "text/plain; charset=utf-8",
                     text)]


# ----------------------------------------------------------------------
# Built-in registrations.
# ----------------------------------------------------------------------

register_job_type(
    "yield_study",
    "Wafer-yield Monte Carlo for one core (Table 5 row)",
    {
        "core": Field(str, required=True, choices=_core_names),
        "wafers": Field(int, default=2, minimum=1, cap=64),
        "seed": SEED,
        "voltages": Field(list, default=[3.0, 4.5], item=float,
                          doc="probe voltages"),
        "fault_check": Field(int, default=0, minimum=0, cap=256,
                             doc="stuck-at faults to inject (0 = off)"),
    },
    _run_yield_study,
)

register_job_type(
    "wafer_maps",
    "Figure 6/7 output-error and current wafer maps for one core",
    {
        "core": Field(str, required=True, choices=_core_names),
        "seed": SEED,
        "voltages": Field(list, default=[3.0, 4.5], item=float),
    },
    _run_wafer_maps,
)

register_job_type(
    "dse_sweep",
    "Design-space evaluation over named design points (Figures 11-13)",
    {
        "designs": Field(list, default=[], choices=_design_names,
                         doc="design names ([] = all)"),
        "transactions": Field(int, default=12, minimum=1, cap=64),
        "seed": SEED,
        "bus_bits": Field(int, default=0, minimum=0, cap=32,
                          doc="program-bus restriction (0 = natural)"),
        "gate_check": Field(bool, default=False),
    },
    _run_dse_sweep,
)

register_job_type(
    "dse_search",
    "Adaptive multi-objective search over the parametric design space",
    DSE_SEARCH,
    _run_dse_search,
)

register_job_type(
    "conformance",
    "Differential-testing campaign over the redundant paths",
    CONFORMANCE,
    _run_conformance,
)

register_job_type(
    "kernel_run",
    "Run one Table 6 kernel and check it against the golden model",
    {
        "kernel": Field(str, required=True, choices=_kernel_names),
        "isa": Field(str, default="flexicore4", choices=_isa_names),
        "transactions": Field(int, default=10, minimum=1, cap=1000),
        "seed": SEED,
    },
    _run_kernel,
)

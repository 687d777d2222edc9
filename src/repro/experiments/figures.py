"""Regeneration of the paper's figures (series/rows, terminal-rendered).

Each ``figureN()`` returns the data series behind the paper's plot; each
``format_figureN()`` renders them as text (wafer maps as character grids,
bar charts as value tables).
"""

from functools import lru_cache

import numpy as np

from repro.dse.designs import DSE_DESIGNS
from repro.dse.evaluate import design_jobs
from repro.dse.features import (
    feature_point_jobs,
    feature_sweep,
    revised_isa_report,
)
from repro.engine import Job, job_function, run_jobs, spawn_seeds
from repro.experiments import paper_data
from repro.experiments.tables import CORES, table6_counts_job
from repro.fab.process import process_for
from repro.fab.yield_model import probed_wafer_job
from repro.kernels import calculator
from repro.kernels.kernel import Target
from repro.kernels.suite import SUITE, get_kernel
from repro.netlist.cores import core_netlist
from repro.tech.power import FMAX_HZ, OperatingPoint, static_power_w


# ----------------------------------------------------------------------
# Figures 6 and 7: wafer maps.
# ----------------------------------------------------------------------

def wafer_jobs(seed=2022):
    """The Figure 6/7 wafers as ``{core display name: Job}``: one wafer
    per core, fabricated and probed at 3 V and 4.5 V under the core's
    own ``SeedSequence.spawn`` child of ``seed``."""
    return {
        name: Job(
            probed_wafer_job,
            {"core": core, "process": process_for(core),
             "voltages": (3.0, 4.5)},
            seed=child,
            label=f"probe:{core}",
        )
        for (name, core), child in zip(CORES,
                                       spawn_seeds(seed, len(CORES)))
    }


def probed_wafers(seed=2022):
    """``{core display name: {"fabricated": wafer, "probes": {voltage:
    probe}}}``: :func:`wafer_jobs` through :func:`run_jobs`."""
    return run_jobs(wafer_jobs(seed), stage="wafers")


def figure6(seed=2022):
    """Output-error wafer maps at 3 V and 4.5 V for both cores."""
    wafers = probed_wafers(seed)
    return {
        (core, voltage): wafers[core]["probes"][voltage].error_map()
        for core in wafers
        for voltage in (3.0, 4.5)
    }


def figure7(seed=2022):
    """Current-draw wafer maps at 3 V and 4.5 V for both cores."""
    wafers = probed_wafers(seed)
    result = {}
    for core in wafers:
        for voltage in (3.0, 4.5):
            probe = wafers[core]["probes"][voltage]
            mean, std, rsd = probe.current_statistics()
            result[(core, voltage)] = {
                "map": probe.current_map(),
                "mean_ma": mean,
                "std_ma": std,
                "rsd": rsd,
                "yield_incl": probe.yield_fraction(True),
            }
    return result


def render_grid(cells, render_cell):
    """A wafer map as text, ``render_cell(value or None)`` per site."""
    if not cells:
        return "(empty wafer)"
    rows = max(r for r, _ in cells) + 1
    cols = max(c for _, c in cells) + 1
    lines = []
    for r in range(rows):
        line = []
        for c in range(cols):
            line.append(render_cell(cells.get((r, c))))
        lines.append("".join(line))
    return "\n".join(lines)


def render_error_cell(errors):
    """One Figure 6 die: ``.`` no die, ``O`` no errors, else the number
    of digits of its error count (at most 9)."""
    if errors is None:
        return " ."
    if errors == 0:
        return " O"
    magnitude = min(9, max(1, int(np.log10(errors)) + 1))
    return f" {magnitude}"


def render_current_cell(current):
    """One Figure 7 die: its current draw in mA, ``.`` for no die."""
    return "   ." if current is None else f" {current:3.1f}"


def format_figure6(seed=2022):
    maps = figure6(seed)
    parts = ["Figure 6: output errors per die "
             "(. = no die, O = 0 errors, 1-9 = log10-ish error count)"]
    for (core, voltage), cells in maps.items():
        parts.append(f"\n-- {core} at {voltage} V --")
        parts.append(render_grid(cells, render_error_cell))
    return "\n".join(parts)


def format_figure7(seed=2022):
    data = figure7(seed)
    parts = ["Figure 7: current draw per die (mA, 'x.x'; . = no die)"]
    for (core, voltage), entry in data.items():
        parts.append(
            f"\n-- {core} at {voltage} V: mean "
            f"{entry['mean_ma']:.2f} mA, rsd {100 * entry['rsd']:.1f}% --"
        )
        parts.append(render_grid(entry["map"], render_current_cell))
    return "\n".join(parts)


# ----------------------------------------------------------------------
# The report's kernel studies: Figure 8's costs, the Figure 9/10 sweep
# and Table 6's counts, as one engine run.
# ----------------------------------------------------------------------

#: Figure 8's rows: (row name, kernel, Calculator operation or None).
#: Like the paper, the Calculator is reported through its
#: multiplication and division subroutines (add/sub are native).
FIGURE8_ROWS = (
    ("Calculator (mul)", "Calculator", calculator.OP_MUL),
    ("Calculator (div)", "Calculator", calculator.OP_DIV),
) + tuple((kernel.name, kernel.name, None) for kernel in SUITE
          if kernel.name != "Calculator")


def _steady_state_cost(kernel, target, gen_fn, warm=6, measure=24,
                       seed=8):
    """Mean dynamic instructions per transaction, warmup excluded.

    Runs the kernel twice with a common input prefix (same seed) and
    differences the instruction counts, which removes one-time setup cost
    -- matching the paper's per-input reporting for streaming kernels.
    """
    short_inputs = gen_fn(np.random.default_rng(seed), warm)
    long_inputs = gen_fn(np.random.default_rng(seed), warm + measure)
    assert long_inputs[:len(short_inputs)] == short_inputs
    short = kernel.check(target, short_inputs)
    long = kernel.check(target, long_inputs)
    return (long.stats.instructions - short.stats.instructions) / measure


@job_function("experiments.figure8_row", version="1")
def figure8_row_job(params, seed):
    """Engine job: one Figure 8 row's dynamic instructions per
    transaction on FlexiCore4 (:func:`_steady_state_cost`); ``op``, when
    set, feeds the Calculator that one operation.

    Bump the version when a kernel source, the macro library, the
    assembler or the simulator changes the count, since the cache key
    does not see them.
    """
    kernel = get_kernel(params["kernel"])
    op = params["op"]
    if op is None:
        gen_fn = kernel.generate_inputs
    else:
        def gen_fn(rng, n):
            return calculator.gen_inputs_op(op, rng, n)
    return _steady_state_cost(kernel, Target.named("flexicore4"), gen_fn,
                              seed=params["seed"])


def kernel_study_jobs(seed=8):
    """The report's kernel studies as ``{(kind, name): Job}``: one
    ``("figure8", row)`` job per Figure 8 row (input ``seed``), one
    ``("feature", point)`` job per Figure 9/10 design point and one
    ``("table6", "flexicore4")`` job for Table 6's counts."""
    jobs = {
        ("figure8", row): Job(figure8_row_job,
                              {"kernel": kernel, "op": op, "seed": seed},
                              label=f"figure8:{row}")
        for row, kernel, op in FIGURE8_ROWS
    }
    jobs.update((("feature", name), job)
                for name, job in feature_point_jobs().items())
    jobs["table6", "flexicore4"] = Job(
        table6_counts_job, {"isa": "flexicore4"}, label="table6:flexicore4"
    )
    return jobs


def kernel_studies(seed=8):
    """The results of :func:`kernel_study_jobs`, through
    :func:`run_jobs`.  Figure 8 and Table 6 read them; Figures 9 and 10
    read the same design-point jobs through
    :func:`~repro.dse.features.feature_sweep` and
    :func:`~repro.dse.features.revised_isa_report`."""
    return run_jobs(kernel_study_jobs(seed), stage="kernels")


@lru_cache(maxsize=None)
def figure8(seed=8):
    """Latency (ms) and energy (uJ) per kernel transaction on FlexiCore4."""
    power = static_power_w(core_netlist("flexicore4").pullups,
                           OperatingPoint(vdd=4.5))
    nj_per_instruction = power / FMAX_HZ * 1e9
    studies = kernel_studies(seed)
    rows = {}
    for row, _, _ in FIGURE8_ROWS:
        instructions = studies["figure8", row]
        rows[row] = {
            "instructions": instructions,
            "time_ms": instructions / FMAX_HZ * 1e3,
            "energy_uj": instructions * nj_per_instruction * 1e-3,
        }
    return {"rows": rows, "nj_per_instruction": nj_per_instruction}


def format_figure8():
    data = figure8()
    lines = [
        "Figure 8: FlexiCore4 kernel latency and energy "
        f"(at {data['nj_per_instruction']:.0f} nJ/instruction; "
        f"paper: {paper_data.NJ_PER_INSTRUCTION:.0f})",
        f"{'Kernel':<20} {'dyn instr':>10} {'time (ms)':>10} "
        f"{'energy (uJ)':>12}",
    ]
    for name, row in sorted(data["rows"].items(),
                            key=lambda item: item[1]["time_ms"]):
        lines.append(
            f"{name:<20} {row['instructions']:10.1f} "
            f"{row['time_ms']:10.2f} {row['energy_uj']:12.2f}"
        )
    lo, hi = paper_data.FIG8_LATENCY_RANGE_MS
    elo, ehi = paper_data.FIG8_ENERGY_RANGE_UJ
    lines.append(f"(paper ranges: {lo}-{hi} ms, {elo}-{ehi} uJ)")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Figures 9 and 10: ISA-extension sweep.
# ----------------------------------------------------------------------

def figure9():
    """Core area / cell count / suite code size per extension."""
    base, reports = feature_sweep()
    revised = revised_isa_report()
    return {
        "features": [
            {
                "feature": report.feature,
                "label": report.label,
                "area": report.area_ratio,
                "cells": report.cell_ratio,
                "code_size": report.code_ratio,
            }
            for report in reports
        ],
        "revised": revised,
    }


def format_figure9():
    data = figure9()
    lines = [
        "Figure 9: relative area / cells / code size per ISA extension",
        f"{'Extension':<32} {'area':>6} {'cells':>6} {'code':>6}",
        f"{'base':<32} {1.0:6.2f} {1.0:6.2f} {1.0:6.2f}",
    ]
    for row in data["features"]:
        lines.append(
            f"{row['label']:<32} {row['area']:6.2f} "
            f"{row['cells']:6.2f} {row['code_size']:6.2f}"
        )
    revised = data["revised"]
    lines.append(
        f"{'revised ISA (Section 6.1)':<32} "
        f"{revised['area_ratio']:6.2f} {'':>6} "
        f"{revised['code_ratio']:6.2f}"
    )
    return "\n".join(lines)


def figure10():
    """Per-benchmark code size under each extension, vs the base ISA."""
    _, reports = feature_sweep()
    revised = revised_isa_report()
    return {
        "by_feature": {
            report.feature: report.code_ratio_by_kernel
            for report in reports
        },
        "revised": revised["code_ratio_by_kernel"],
    }


def format_figure10():
    data = figure10()
    features = list(data["by_feature"])
    kernel_names = list(next(iter(data["by_feature"].values())))
    header = f"{'Kernel':<16}" + "".join(
        f"{feature:>9}" for feature in features
    ) + f"{'revised':>9}"
    lines = ["Figure 10: code size vs base FlexiCore4 ISA", header]
    for name in kernel_names:
        cells = "".join(
            f"{data['by_feature'][feature][name]:9.2f}"
            for feature in features
        )
        lines.append(f"{name:<16}{cells}{data['revised'][name]:9.2f}")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Figures 11, 12, 13: the operand/microarchitecture study.
# ----------------------------------------------------------------------

def dse_sweep(bus_bits=None):
    """The design points of Figures 11-13 and the Pareto analysis,
    evaluated (:func:`~repro.dse.evaluate.design_jobs`) through
    :func:`run_jobs`: ``{design name: DesignMetrics}``.  ``bus_bits=8``
    is Figure 13's restricted program bus."""
    return run_jobs(design_jobs(bus_bits=bus_bits), stage="dse")


def figure11():
    """Per-kernel performance and energy of the DSE cores vs FlexiCore4."""
    results = dse_sweep()
    base = results["FlexiCore4"]
    perf = {}
    energy = {}
    for design in DSE_DESIGNS:
        metrics = results[design.name]
        perf[design.name] = {
            name: base.kernels[name].time_s / k.time_s
            for name, k in metrics.kernels.items()
        }
        energy[design.name] = {
            name: k.energy_j / base.kernels[name].energy_j
            for name, k in metrics.kernels.items()
        }
        perf[design.name]["Avg"] = float(np.exp(np.mean(
            np.log(list(perf[design.name].values()))
        )))
        energy[design.name]["Avg"] = float(np.exp(np.mean(
            np.log(list(energy[design.name].values()))
        )))
    return {"performance": perf, "energy": energy}


def _format_design_kernel_table(table, title):
    designs = list(table)
    kernel_names = list(next(iter(table.values())))
    lines = [title,
             f"{'Kernel':<16}" + "".join(f"{d:>8}" for d in designs)]
    for name in kernel_names:
        cells = "".join(f"{table[d][name]:8.2f}" for d in designs)
        lines.append(f"{name[:15]:<16}{cells}")
    return "\n".join(lines)


def format_figure11():
    data = figure11()
    return (
        _format_design_kernel_table(
            data["performance"],
            "Figure 11a: performance vs FlexiCore4 (higher = faster)",
        )
        + "\n\n"
        + _format_design_kernel_table(
            data["energy"],
            "Figure 11b: energy vs FlexiCore4 (lower = better)",
        )
    )


def figure12():
    """Normalized core area vs code size for the six DSE designs."""
    results = dse_sweep()
    anchor = results["Acc SC"]
    rows = {}
    for design in DSE_DESIGNS:
        metrics = results[design.name]
        rows[design.name] = {
            "area": metrics.nand2_area / anchor.nand2_area,
            "code_size": (
                metrics.total_code_bits() / anchor.total_code_bits()
            ),
        }
    return rows


def format_figure12():
    rows = figure12()
    lines = ["Figure 12: normalized area vs code size (Acc SC = 1.0)",
             f"{'Design':<10} {'area':>7} {'code':>7}"]
    for name, row in rows.items():
        lines.append(f"{name:<10} {row['area']:7.3f} {row['code_size']:7.3f}")
    return "\n".join(lines)


def figure13():
    """Relative energy of the DSE cores, wide bus and 8-bit bus."""
    wide = dse_sweep()
    bus = dse_sweep(bus_bits=8)
    anchor = wide["Acc SC"]
    rows = {}
    for design in DSE_DESIGNS:
        wide_metrics = wide[design.name]
        bus_metrics = bus[design.name]
        feasible = all(k.feasible for k in bus_metrics.kernels.values())
        rows[design.name] = {
            "wide": wide_metrics.mean_relative(anchor, "energy_j"),
            "bus": (bus_metrics.mean_relative(anchor, "energy_j")
                    if feasible else None),
        }
    return rows


def format_figure13():
    rows = figure13()
    lines = [
        "Figure 13: relative energy (Acc SC = 1.0); "
        "'n/a' = infeasible with an 8-bit program bus",
        f"{'Design':<10} {'wide bus':>9} {'8b bus':>9}",
    ]
    for name, row in rows.items():
        bus_text = "n/a" if row["bus"] is None else f"{row['bus']:.2f}"
        lines.append(f"{name:<10} {row['wide']:9.2f} {bus_text:>9}")
    return "\n".join(lines)

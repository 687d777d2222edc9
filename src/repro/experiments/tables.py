"""Regeneration of the paper's tables (see DESIGN.md for the index).

Each ``tableN()`` returns structured data; each ``format_tableN()``
renders the same rows the paper prints.
"""

from repro.engine import job_function, run_jobs, spawn_seeds
from repro.experiments import paper_data
from repro.fab.process import process_for
from repro.fab.yield_model import merge_buckets, wafer_yield_jobs
from repro.kernels.kernel import Target
from repro.kernels.suite import SUITE
from repro.netlist.cores import core_netlist
from repro.tech.power import OperatingPoint, static_power_w

def table1():
    """Table 1 application requirements, checked against measured kernel
    costs (Sections 3.2 and 5.2): sample-rate feasibility, precision fit
    and battery life under power gating."""
    from repro.experiments.figures import figure8
    from repro.tech.applications import assess_all
    from repro.tech.power import OperatingPoint, static_power_w

    rows = figure8()["rows"]
    kernel_costs = {
        "Calculator": rows["Calculator (mul)"]["instructions"],
        "Four-tap FIR": rows["Four-tap FIR"]["instructions"],
        "Decision Tree": rows["Decision Tree"]["instructions"],
        "IntAvg": rows["IntAvg"]["instructions"],
        "Thresholding": rows["Thresholding"]["instructions"],
        "Parity Check": rows["Parity Check"]["instructions"],
        "XorShift8": rows["XorShift8"]["instructions"],
    }
    power = static_power_w(
        core_netlist("flexicore4").pullups, OperatingPoint(vdd=4.5)
    )
    return assess_all(kernel_costs, power)


def format_table1():
    reports = table1()
    lines = [
        "Table 1: application feasibility on FlexiCore4 "
        "(measured kernel costs, 5 mAh battery, power gating)",
        f"{'Application':<26} {'rate Hz':>8} {'ok?':>4} {'bits':>5} "
        f"{'4b':>3} {'8b':>3} {'battery':>10}",
    ]
    for report in reports:
        app = report.application
        battery = ("inf" if report.battery_days > 3650
                   else f"{report.battery_days:.0f} d")
        lines.append(
            f"{app.name:<26} {app.sample_rate_hz:>8.2f} "
            f"{'yes' if report.rate_ok else 'NO':>4} "
            f"{app.precision_bits:>5} "
            f"{'y' if report.precision_ok_4bit else '-':>3} "
            f"{'y' if report.precision_ok_8bit else '-':>3} "
            f"{battery:>10}"
        )
    return "\n".join(lines)


#: Module display order of Tables 2 and 3.
_MODULE_ORDER = ("alu", "decoder", "memory", "pc", "acc")
_MODULE_NAMES = {
    "alu": "ALU", "decoder": "Decoder", "memory": "Regfile/Memory",
    "pc": "PC", "acc": "Acc.",
}


def _module_table(netlist):
    """Rows of Table 2/3 for one core."""
    breakdown = netlist.module_breakdown()
    total_area = netlist.nand2_area
    total_pullups = netlist.pullups
    seq_total = sum(e["seq_area"] for e in breakdown.values())
    rows = {}
    for module in _MODULE_ORDER:
        entry = breakdown.get(module)
        if entry is None:
            continue
        rows[module] = {
            "noncomb_pct": 100.0 * entry["noncomb_fraction"],
            "comb_pct": 100.0 * (1.0 - entry["noncomb_fraction"]),
            "area_pct": 100.0 * entry["area"] / total_area,
            "power_pct": 100.0 * entry["pullups"] / total_pullups,
        }
    rows["total"] = {
        "noncomb_pct": 100.0 * seq_total / total_area,
        "comb_pct": 100.0 * (1.0 - seq_total / total_area),
        "area_pct": 100.0,
        "power_pct": 100.0,
    }
    return rows


def table2():
    """FlexiCore4 module area/power breakdown."""
    return _module_table(core_netlist("flexicore4"))


def table3():
    """FlexiCore8 module area/power breakdown."""
    return _module_table(core_netlist("flexicore8"))


def _format_module_table(rows, paper_area, paper_power, title):
    lines = [title, f"{'Module':<16} {'%NonComb':>9} {'%Comb':>7} "
                    f"{'%Area':>7} {'%Power':>7} {'paper%A':>8} {'paper%P':>8}"]
    for module in _MODULE_ORDER + ("total",):
        if module not in rows:
            continue
        row = rows[module]
        name = _MODULE_NAMES.get(module, "Total Core")
        pa = paper_area.get(module, float("nan"))
        pp = paper_power.get(module, float("nan"))
        lines.append(
            f"{name:<16} {row['noncomb_pct']:9.1f} {row['comb_pct']:7.1f} "
            f"{row['area_pct']:7.1f} {row['power_pct']:7.1f} "
            f"{pa:8.1f} {pp:8.1f}"
        )
    return "\n".join(lines)


def format_table2():
    return _format_module_table(
        table2(), paper_data.TABLE2_AREA_PCT, paper_data.TABLE2_POWER_PCT,
        "Table 2: FlexiCore4 module contribution (measured vs paper)",
    )


def format_table3():
    return _format_module_table(
        table3(), paper_data.TABLE3_AREA_PCT, paper_data.TABLE3_POWER_PCT,
        "Table 3: FlexiCore8 module contribution (measured vs paper)",
    )


# ----------------------------------------------------------------------

#: The report's fabricated cores: (display name, registered core name).
CORES = (("FlexiCore4", "flexicore4"), ("FlexiCore8", "flexicore8"))


def yield_jobs(wafers=6, seed=2022):
    """Table 5's wafer jobs as ``{(core display name, wafer index):
    Job}``: each core gets its own ``SeedSequence.spawn`` child of
    ``seed``, each wafer its own grandchild."""
    return {
        (name, index): job
        for (name, core), child in zip(CORES, spawn_seeds(seed, len(CORES)))
        for index, job in wafer_yield_jobs(process_for(core), seed=child,
                                           core=core, wafers=wafers).items()
    }


def yield_summaries(wafers=6, seed=2022):
    """``{core display name: Table 5 summary}``: the
    :func:`yield_jobs` results, each core's wafers folded in wafer
    order, so the summaries are identical at any worker count."""
    results = run_jobs(yield_jobs(wafers, seed), stage="yield")
    return {
        name: merge_buckets(
            [results[name, index] for index in range(wafers)], (3.0, 4.5)
        )
        for name, _ in CORES
    }


def table4():
    """Comparison of the FlexiCores (Table 4)."""
    nl4 = core_netlist("flexicore4")
    nl8 = core_netlist("flexicore8")
    nl4p = core_netlist("flexicore4plus")
    summaries = yield_summaries()
    # Measured mean power = mean functional current x supply.
    p4 = summaries["FlexiCore4"][4.5]["mean_current_ma"] * 4.5
    p8 = summaries["FlexiCore8"][4.5]["mean_current_ma"] * 4.5
    # FlexiCore4+ was made on the refined process (Table 4).
    p4p = static_power_w(
        nl4p.pullups, OperatingPoint(vdd=4.5, refined_pullups=True)
    ) * 1e3
    return {
        "FlexiCore4": {
            "area_mm2": nl4.area_mm2, "voltage": 4.5, "mean_power_mw": p4,
            "yield": summaries["FlexiCore4"][4.5]["inclusion"],
            "pins": 25, "devices": nl4.device_count,
            "clock_khz": 12.5, "width": 4, "flexible": True,
        },
        "FlexiCore8": {
            "area_mm2": nl8.area_mm2, "voltage": 4.5, "mean_power_mw": p8,
            "yield": summaries["FlexiCore8"][4.5]["inclusion"],
            "pins": 31, "devices": nl8.device_count,
            "clock_khz": 12.5, "width": 8, "flexible": True,
        },
        "FlexiCore4+": {
            "area_mm2": nl4p.area_mm2, "voltage": 4.5,
            "mean_power_mw": p4p, "yield": None,
            "pins": 24, "devices": nl4p.device_count,
            "clock_khz": 12.5, "width": 4, "flexible": True,
        },
    }


def format_table4():
    rows = table4()
    lines = ["Table 4: FlexiCore comparison (measured | paper)"]
    fields = ("area_mm2", "mean_power_mw", "yield", "devices", "pins",
              "width")
    header = f"{'':<16}" + "".join(f"{name:>22}" for name in rows)
    lines.append(header)
    for field in fields:
        cells = []
        for name, row in rows.items():
            paper_value = paper_data.TABLE4[name].get(
                field if field != "mean_power_mw" else "mean_power_mw"
            )
            value = row[field]
            if field == "yield":
                text = "n/a" if value is None else f"{100 * value:.0f}%"
                paper_text = ("n/a" if paper_value is None
                              else f"{100 * paper_value:.0f}%")
            elif isinstance(value, float):
                text, paper_text = f"{value:.2f}", f"{paper_value:.2f}"
            else:
                text, paper_text = str(value), str(paper_value)
            cells.append(f"{text + ' | ' + paper_text:>22}")
        lines.append(f"{field:<16}" + "".join(cells))
    return "\n".join(lines)


def table5(wafers=6, seed=2022):
    """Yield at 3 V / 4.5 V, full wafer vs inclusion zone (Table 5)."""
    summaries = yield_summaries(wafers=wafers, seed=seed)
    result = {}
    for core, summary in summaries.items():
        result[core] = {
            "full": {v: 100.0 * summary[v]["full"] for v in (3.0, 4.5)},
            "incl": {v: 100.0 * summary[v]["inclusion"]
                     for v in (3.0, 4.5)},
        }
    return result


def format_table5(wafers=6, seed=2022):
    rows = table5(wafers=wafers, seed=seed)
    lines = [
        "Table 5: yield, measured (paper)",
        f"{'':<12} {'Full 3V':>12} {'Full 4.5V':>12} "
        f"{'Incl 3V':>12} {'Incl 4.5V':>12}",
    ]
    for core, row in rows.items():
        paper = paper_data.TABLE5[core]
        lines.append(
            f"{core:<12} "
            f"{row['full'][3.0]:4.0f}% ({paper['full'][3.0]}%)   "
            f"{row['full'][4.5]:4.0f}% ({paper['full'][4.5]}%)   "
            f"{row['incl'][3.0]:4.0f}% ({paper['incl'][3.0]}%)   "
            f"{row['incl'][4.5]:4.0f}% ({paper['incl'][4.5]}%)"
        )
    return "\n".join(lines)


@job_function("experiments.table6_counts", version="1")
def table6_counts_job(params, seed):
    """Engine job: {kernel: static instructions} of the Table 6 suite
    assembled for ``params["isa"]``.

    Bump the version when a kernel source, the macro library or the
    assembler changes the counts, since the cache key does not see them.
    """
    target = Target.named(params["isa"])
    return {kernel.name: kernel.binary(target).static_instructions
            for kernel in SUITE}


def table6():
    """Benchmark static instruction counts on FlexiCore4 (Table 6)."""
    from repro.experiments.figures import kernel_studies

    counts = kernel_studies()["table6", "flexicore4"]
    return {
        kernel.name: {
            "static_instructions": counts[kernel.name],
            "app_type": kernel.app_type,
            "paper": paper_data.TABLE6[kernel.name],
        }
        for kernel in SUITE
    }


def format_table6():
    rows = table6()
    lines = [
        "Table 6: benchmark kernels on FlexiCore4",
        f"{'Kernel':<16} {'Static':>7} {'Paper':>7}  Type",
    ]
    for name, row in rows.items():
        lines.append(
            f"{name:<16} {row['static_instructions']:7d} "
            f"{row['paper']:7d}  {row['app_type']}"
        )
    return "\n".join(lines)


def table7():
    """Comparison to other flexible ICs (Table 7): our measured row plus
    the literature rows the paper quotes."""
    nl4 = core_netlist("flexicore4")
    summaries = yield_summaries()
    power_mw = summaries["FlexiCore4"][4.5]["mean_current_ma"] * 4.5
    this_work = {
        "name": "This Work (FlexiCore4)",
        "devices": nl4.device_count,
        "area_mm2": round(nl4.area_mm2, 1),
        "pins": 28,
        "voltage": 4.5,
        "power_mw": round(power_mw, 2),
        "clock_khz": 12.5,
        "nand2": round(nl4.nand2_area),
        "power_density_mw_mm2": round(power_mw / nl4.area_mm2, 3),
        "yield": summaries["FlexiCore4"][4.5]["inclusion"],
        "width": 4,
    }
    others = [
        {
            "name": name, "devices": devices, "area_mm2": area,
            "pins": pins, "voltage": volt, "power_mw": power,
            "clock_khz": clock, "technology": tech, "family": family,
            "nand2": nand2, "flexible": flexible, "prog": prog,
            "width": width,
        }
        for (name, devices, area, pins, volt, power, clock, tech,
             family, nand2, flexible, prog, width)
        in paper_data.TABLE7_OTHERS
    ]
    return {"this_work": this_work, "others": others,
            "paper_this_work": paper_data.TABLE7_THIS_WORK}


def format_table7():
    data = table7()
    lines = ["Table 7: comparison to other flexible ICs",
             f"{'Design':<24} {'Devices':>8} {'mm^2':>7} {'V':>5} "
             f"{'mW':>7} {'kHz':>7} {'width':>6}"]
    tw = data["this_work"]
    lines.append(
        f"{tw['name']:<24} {tw['devices']:>8} {tw['area_mm2']:>7} "
        f"{tw['voltage']:>5} {tw['power_mw']:>7} {tw['clock_khz']:>7} "
        f"{tw['width']:>6}"
    )
    for row in data["others"]:
        power = row["power_mw"] if row["power_mw"] is not None else "-"
        pins = row["pins"] if row["pins"] is not None else "-"
        lines.append(
            f"{row['name']:<24} {row['devices']:>8} {row['area_mm2']:>7} "
            f"{row['voltage']:>5} {power:>7} {row['clock_khz']:>7} "
            f"{row['width']:>6}"
        )
    return "\n".join(lines)

"""EXPERIMENTS.md generation: every table and figure, paper vs measured."""

import sys

from repro.experiments import figures, tables


def _section(title, body):
    return f"## {title}\n\n```\n{body}\n```\n"


def headline_summary():
    """The paper's headline claims vs this reproduction's measurements."""
    lines = []
    t5 = tables.table5()
    lines.append(
        f"- FlexiCore4 inclusion-zone yield at 4.5 V: "
        f"measured {t5['FlexiCore4']['incl'][4.5]:.0f}% (paper 81%)"
    )
    lines.append(
        f"- FlexiCore8 inclusion-zone yield at 4.5 V: "
        f"measured {t5['FlexiCore8']['incl'][4.5]:.0f}% (paper 57%)"
    )
    f7 = figures.figure7()
    lines.append(
        f"- Current-draw RSD: FlexiCore4 "
        f"{100 * f7[('FlexiCore4', 4.5)]['rsd']:.1f}% (paper 15.3%), "
        f"FlexiCore8 {100 * f7[('FlexiCore8', 4.5)]['rsd']:.1f}% "
        f"(paper 21.5%)"
    )
    f8 = figures.figure8()
    times = [row["time_ms"] for row in f8["rows"].values()]
    energies = [row["energy_uj"] for row in f8["rows"].values()]
    lines.append(
        f"- Kernel latency range: measured {min(times):.2f}-"
        f"{max(times):.1f} ms (paper 4.28-12.9 ms); energy "
        f"{min(energies):.1f}-{max(energies):.1f} uJ (paper 21.0-61.4 uJ) "
        f"at {f8['nj_per_instruction']:.0f} nJ/instruction (paper 360)"
    )
    revised = figures.figure9()["revised"]
    lines.append(
        f"- Revised-ISA code size: measured "
        f"{100 * revised['code_ratio']:.0f}% of base "
        f"(paper: < 30%); area x{revised['area_ratio']:.2f} "
        f"(paper: x1.09-1.37)"
    )
    f13 = figures.figure13()
    best = min(
        (row["wide"] for row in f13.values()), default=float("nan")
    )
    lines.append(
        f"- Best DSE design energy vs Acc SC: x{best:.2f} "
        f"(paper: the 2-stage load-store machine at < 0.5x the base)"
    )
    return "\n".join(lines)


def format_section35():
    from repro.netlist.msp430 import section35_comparison

    comparison = section35_comparison()
    msp = comparison["msp430"]
    return (
        "Section 3.5: openMSP430 synthesized into the IGZO library\n"
        f"MSP430: {msp.area_mm2:.0f} mm^2, "
        f"{msp.static_power_mw:.1f} mW static "
        f"(paper: 170 mm^2, 41.2 mW)\n"
        f"area ratio vs FlexiCore4:  {comparison['area_ratio']:.1f}x "
        f"(paper 30x)\n"
        f"power ratio vs FlexiCore4: {comparison['power_ratio']:.1f}x "
        f"(paper 23x)"
    )


def format_usage_variation():
    """Section 4.2's closing observation, quantified: how the measured
    current spread translates into unequal battery lifetimes.

    Reuses the Figure 6/7 wafer, so the analysis shares its job instead
    of re-rolling a wafer."""
    from repro.fab.variation import summarize, usage_distribution

    probe = figures.probed_wafers()["FlexiCore4"]["probes"][4.5]
    # One IntAvg+Thresholding inference (the Section 5.2 pipeline).
    dist = usage_distribution(probe, instructions_per_use=110)
    return (
        "Section 4.2: usages per die on a 3 V, 5 mAh battery "
        "(IIR+threshold inference, functional dies of one wafer)\n"
        + summarize(dist)
        + "\n'The high process variation can have significant impact on "
        "the number of usages of a flexible microprocessor given an "
        "energy budget.'"
    )


def format_pareto():
    from repro.dse.explorer import format_frontier, pareto

    metrics = ("area", "energy")
    wide_frontier, wide_points = pareto(figures.dse_sweep(), metrics)
    bus_frontier, bus_points = pareto(figures.dse_sweep(bus_bits=8),
                                      metrics)
    return (
        "Pareto frontier, wide program bus:\n"
        + format_frontier(wide_frontier, wide_points, metrics)
        + "\n\nPareto frontier, 8-bit program bus "
        "(LS SC/P infeasible):\n"
        + format_frontier(bus_frontier, bus_points, metrics)
    )


DEVIATIONS = """\
Known deviations from the paper (and why):

- Static instruction counts (Table 6) undershoot for Thresholding,
  Parity Check and the Calculator: our macro-assembly kernels are
  tighter than whatever the authors hand-wrote, and their exact sources
  were never published.  The cross-kernel ordering is preserved.
- Revised-ISA code size lands at ~75% of base rather than the paper's
  <30%: the paper published no encodings for the Section 6.1 extension
  instructions, and our chosen byte-serial encodings (two-byte branches
  and EXT-prefixed operations, DESIGN.md) keep the 8-bit instruction
  bus honest at the cost of code-size headroom.
- For the same reason the DSE energy wins (Figures 11/13) are ~0.57-
  0.73x rather than 0.45-0.56x; every ordering conclusion (pipelined
  load-store best with integrated program memory, pipelined accumulator
  best over the 8-bit bus, multicycle worst) matches the paper.
- Gate/device counts run ~25% below the fabricated chips (structural
  netlists lack the clock tree and synthesis overhead of a real flow);
  device counts are within 5% because the cell device weights are
  calibrated to the Figure 1 library.
- Section 3.5's power ratio tracks the area ratio (~30x vs the paper's
  23x) because static power in our model is strictly proportional to
  pull-up count."""


_THIS = sys.modules[__name__]

#: EXPERIMENTS.md's sections in order: (experiment name, section title,
#: module, formatter name).  ``repro experiments <name>`` prints one.
#: :func:`generate` looks each formatter up when it runs, so a wrapped
#: ``format_*`` function is the one that runs.
SECTIONS = (
    ("table1", "Table 1", tables, "format_table1"),
    ("table2", "Table 2", tables, "format_table2"),
    ("table3", "Table 3", tables, "format_table3"),
    ("table4", "Table 4", tables, "format_table4"),
    ("table5", "Table 5", tables, "format_table5"),
    ("table6", "Table 6", tables, "format_table6"),
    ("table7", "Table 7", tables, "format_table7"),
    ("figure6", "Figure 6", figures, "format_figure6"),
    ("figure7", "Figure 7", figures, "format_figure7"),
    ("figure8", "Figure 8", figures, "format_figure8"),
    ("figure9", "Figure 9", figures, "format_figure9"),
    ("figure10", "Figure 10", figures, "format_figure10"),
    ("figure11", "Figure 11", figures, "format_figure11"),
    ("figure12", "Figure 12", figures, "format_figure12"),
    ("figure13", "Figure 13", figures, "format_figure13"),
    ("section35", "Section 3.5 (openMSP430)", _THIS, "format_section35"),
    ("usage_variation", "Section 4.2 (usage variation)", _THIS,
     "format_usage_variation"),
    ("pareto", "Design-space Pareto analysis", _THIS, "format_pareto"),
)

ALL_EXPERIMENTS = {name: getattr(module, formatter)
                   for name, _, module, formatter in SECTIONS}


def generate(path=None):
    """Render the full EXPERIMENTS.md document; optionally write it.

    Every engine job the sections read runs first, as one batch; the
    sections then read the results from :func:`repro.engine.run_jobs`."""
    from repro.dse.evaluate import design_jobs
    from repro.engine import run_jobs

    builders = (tables.yield_jobs(), figures.wafer_jobs(),
                figures.kernel_study_jobs(), design_jobs(),
                design_jobs(bus_bits=8))
    run_jobs({(index, name): job
              for index, jobs in enumerate(builders)
              for name, job in jobs.items()}, stage="report")
    parts = [
        "# EXPERIMENTS -- paper vs measured",
        "",
        "Regenerate any entry with its `benchmarks/` target or via "
        "`python -m repro.cli experiments <name>`.",
        "",
        "## Headlines",
        "",
        headline_summary(),
        "",
        "## Deviations",
        "",
        DEVIATIONS,
        "",
    ] + [_section(title, getattr(module, formatter)())
         for _, title, module, formatter in SECTIONS]
    document = "\n".join(parts)
    if path is not None:
        with open(path, "w") as handle:
            handle.write(document)
    return document

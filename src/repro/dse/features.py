"""Per-feature ISA-extension study (Figures 9 and 10).

For each Section 6.1 extension, measure against the base FlexiCore4:

- core area and cell count with the feature's hardware added (the
  Figure 9 bars), from the parametric gate-level netlists, and
- the code size of the whole Table 6 suite -- total for Figure 9, per
  benchmark for Figure 10 -- by re-assembling every kernel against an
  ISA with just that feature enabled.

Each design point is one engine job (:func:`feature_point_job`), so a
cached run reads the sweep instead of building and assembling it; the
ratios are taken from the job results in the caller's process.
"""

from dataclasses import dataclass, field
from typing import Dict

from repro.engine import Job, job_function, run_jobs
from repro.isa.extended import FULL_FEATURES
from repro.kernels.kernel import Target
from repro.kernels.suite import SUITE
from repro.netlist.dse_cores import build_extended_core

#: Figure 9/10 sweep, with the paper's display names.
FEATURE_LABELS = (
    ("adc", "ADC (data coalescing)"),
    ("shift", "Right shift (barrel shifter)"),
    ("flags", "Branch flags (nzp)"),
    ("mult", "Multiplication"),
    ("xchg", "Accumulator exchange"),
    ("subr", "Subroutines (call/ret)"),
    ("fullalu", "Full ALU (and/or/sub/neg)"),
    ("mem2x", "Double data memory"),
)

#: The sweep's design points: (name, extensions, ISA the suite is
#: assembled for).  "revised" is Section 6.1's final operation set.
FEATURE_POINTS = (
    (("base", (), "extacc[base]"),)
    + tuple((feature, (feature,), f"extacc[{feature}]")
            for feature, _ in FEATURE_LABELS)
    + (("revised", tuple(sorted(FULL_FEATURES)), "extacc"),)
)


@dataclass
class FeatureReport:
    """One extension's cost and benefit relative to the base design."""

    feature: str
    label: str
    area_ratio: float
    cell_ratio: float
    #: {kernel name: code size in bits}
    code_bits: Dict[str, int] = field(default_factory=dict)
    code_ratio: float = 1.0
    code_ratio_by_kernel: Dict[str, float] = field(default_factory=dict)


def _suite_code_bits(target):
    return {
        kernel.name: kernel.binary(target).size_bits for kernel in SUITE
    }


@job_function("dse.feature_point", version="1")
def feature_point_job(params, seed):
    """Engine job: one design point's extended-core area and cell count,
    and the code size of every Table 6 kernel assembled for its ISA.

    Bump the version when a kernel source, the macro library, the
    assembler's encodings or the extended-core netlists change, since
    the cache key does not see them.
    """
    netlist = build_extended_core(params["features"])
    return {
        "nand2_area": netlist.nand2_area,
        "gate_count": netlist.gate_count,
        "code_bits": _suite_code_bits(Target.named(params["isa"])),
    }


def feature_point_jobs(names=None):
    """{point name: :class:`Job`} for the :data:`FEATURE_POINTS` named
    in ``names`` (default: all), in sweep order."""
    return {
        name: Job(feature_point_job, {"features": features, "isa": isa},
                  label=f"feature:{name}")
        for name, features, isa in FEATURE_POINTS
        if names is None or name in names
    }


def sweep_reports(points):
    """(base_report, [FeatureReport]) from ``{point name:
    feature_point_job result}`` holding the base and every extension."""
    base = points["base"]
    base_bits = base["code_bits"]
    base_total = sum(base_bits.values())
    base_report = FeatureReport(
        feature="base",
        label="Base FlexiCore4 ISA",
        area_ratio=1.0,
        cell_ratio=1.0,
        code_bits=dict(base_bits),
        code_ratio=1.0,
        code_ratio_by_kernel={name: 1.0 for name in base_bits},
    )
    reports = []
    for feature, label in FEATURE_LABELS:
        point = points[feature]
        bits = point["code_bits"]
        reports.append(FeatureReport(
            feature=feature,
            label=label,
            area_ratio=point["nand2_area"] / base["nand2_area"],
            cell_ratio=point["gate_count"] / base["gate_count"],
            code_bits=dict(bits),
            code_ratio=sum(bits.values()) / base_total,
            code_ratio_by_kernel={
                name: bits[name] / base_bits[name] for name in bits
            },
        ))
    return base_report, reports


def revised_report(points):
    """The revised operation set vs the base, from ``{point name:
    feature_point_job result}`` holding both."""
    base, revised = points["base"], points["revised"]
    base_bits, revised_bits = base["code_bits"], revised["code_bits"]
    return {
        "area_ratio": revised["nand2_area"] / base["nand2_area"],
        "code_ratio": (sum(revised_bits.values())
                       / sum(base_bits.values())),
        "code_ratio_by_kernel": {
            name: revised_bits[name] / base_bits[name]
            for name in revised_bits
        },
    }


def feature_sweep():
    """Run the Figure 9/10 sweep.  Returns (base_report, [FeatureReport])."""
    names = {"base"} | {feature for feature, _ in FEATURE_LABELS}
    return sweep_reports(run_jobs(feature_point_jobs(names), "features"))


def revised_isa_report():
    """The final revised operation set (Section 6.1) vs the base."""
    return revised_report(
        run_jobs(feature_point_jobs({"base", "revised"}), "features")
    )

"""Per-feature ISA-extension study (Figures 9 and 10).

For each Section 6.1 extension, measure against the base FlexiCore4:

- core area and cell count with the feature's hardware added (the
  Figure 9 bars), from the parametric gate-level netlists, and
- the code size of the whole Table 6 suite -- total for Figure 9, per
  benchmark for Figure 10 -- by re-assembling every kernel against an
  ISA with just that feature enabled.
"""

from dataclasses import dataclass, field
from typing import Dict

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


def feature_sweep():
    """Run the Figure 9/10 sweep.  Returns (base_report, [FeatureReport])."""
    base_netlist = build_extended_core(())
    base_target = Target.named("extacc[base]")
    base_bits = _suite_code_bits(base_target)
    base_total = sum(base_bits.values())

    base_report = FeatureReport(
        feature="base",
        label="Base FlexiCore4 ISA",
        area_ratio=1.0,
        cell_ratio=1.0,
        code_bits=base_bits,
        code_ratio=1.0,
        code_ratio_by_kernel={name: 1.0 for name in base_bits},
    )

    reports = []
    for feature, label in FEATURE_LABELS:
        netlist = build_extended_core((feature,))
        target = Target.named(f"extacc[{feature}]")
        bits = _suite_code_bits(target)
        total = sum(bits.values())
        reports.append(FeatureReport(
            feature=feature,
            label=label,
            area_ratio=netlist.nand2_area / base_netlist.nand2_area,
            cell_ratio=netlist.gate_count / base_netlist.gate_count,
            code_bits=bits,
            code_ratio=total / base_total,
            code_ratio_by_kernel={
                name: bits[name] / base_bits[name] for name in bits
            },
        ))
    return base_report, reports


def revised_isa_report():
    """The final revised operation set (Section 6.1) vs the base."""
    base_netlist = build_extended_core(())
    base_bits = _suite_code_bits(Target.named("extacc[base]"))
    full_netlist = build_extended_core(
        frozenset({"adc", "shift", "flags", "xchg", "subr", "fullalu"})
    )
    full_bits = _suite_code_bits(Target.named("extacc"))
    return {
        "area_ratio": full_netlist.nand2_area / base_netlist.nand2_area,
        "code_ratio": sum(full_bits.values()) / sum(base_bits.values()),
        "code_ratio_by_kernel": {
            name: full_bits[name] / base_bits[name] for name in full_bits
        },
    }

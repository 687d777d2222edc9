"""Section 4.3: why a 5 nm CMOS FlexiCore makes no sense.

"Their implementation in 5 nm process technology would allow hundreds of
thousands of ~0.03 mm x 0.03 mm FlexiCores per 300 mm silicon wafer.
However, such small cores would be impractical to dice, with chips
requiring 50 um to 200 um spacing using conventional diamond blades,
wasting more than half to 90% of the wafer...  Additionally, such a
small die would be severely IO-limited, as each side will support 1-2
IOs at a 10 um pitch."

This module makes that argument computable.
"""

import math
from dataclasses import dataclass

#: A FlexiCore4 scaled to a leading-edge node (Section 4.3).
CMOS_DIE_SIDE_MM = 0.03
SILICON_WAFER_DIAMETER_MM = 300.0
#: Conventional diamond-blade kerf/spacing range (Section 4.3).
BLADE_SPACING_UM = (50.0, 200.0)
#: Plasma dicing spacing (expensive alternative).
PLASMA_SPACING_UM = 10.0
#: Achievable IO pad pitch on a tiny die edge.
IO_PITCH_UM = 10.0


@dataclass(frozen=True)
class DicingAnalysis:
    die_side_mm: float
    spacing_um: float

    @property
    def pitch_mm(self):
        return self.die_side_mm + self.spacing_um * 1e-3

    @property
    def area_utilization(self):
        """Fraction of wafer area that is die rather than kerf."""
        return (self.die_side_mm / self.pitch_mm) ** 2

    @property
    def waste_fraction(self):
        """Linear kerf waste (the paper's "more than half to 90%" is
        consistent with the one-dimensional accounting)."""
        return 1.0 - self.die_side_mm / self.pitch_mm

    @property
    def dies_per_300mm_wafer(self):
        wafer_area = math.pi * (SILICON_WAFER_DIAMETER_MM / 2) ** 2
        return int(wafer_area * 0.95 / self.pitch_mm ** 2)

    @property
    def ios_per_side(self):
        """Bondable pads per die edge: a 5 um corner margin each side
        leaves the paper's '1-2 IOs at a 10 um pitch'."""
        usable_um = self.die_side_mm * 1e3 - 2 * 5.0
        return max(0, int(usable_um // IO_PITCH_UM))


def blade_dicing(spacing_um=BLADE_SPACING_UM[0]):
    return DicingAnalysis(CMOS_DIE_SIDE_MM, spacing_um)


def plasma_dicing():
    return DicingAnalysis(CMOS_DIE_SIDE_MM, PLASMA_SPACING_UM)


def section43_summary():
    """The three quantitative claims of Section 4.3, computed."""
    gentle = blade_dicing(BLADE_SPACING_UM[0])
    harsh = blade_dicing(BLADE_SPACING_UM[1])
    return {
        "dies_per_wafer": gentle.dies_per_300mm_wafer,
        "blade_waste_range": (gentle.waste_fraction,
                              harsh.waste_fraction),
        "plasma_waste": plasma_dicing().waste_fraction,
        "ios_per_side": gentle.ios_per_side,
    }

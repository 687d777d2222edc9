"""0.8 um IGZO thin-film-transistor device model.

Figure 1 of the paper publishes measured device statistics for the
FlexLogIC 0.8 um IGZO process; this module encodes them and derives the
two technology behaviours the rest of the model stack needs:

- a *delay-vs-voltage* factor (n-type TFT with resistive pull-up: drive
  current, and hence speed, degrades super-linearly as VDD approaches the
  threshold voltage), and
- per-die *process variation* samples (threshold-voltage shifts that move
  both speed and static current draw).

The paper's wafers are the ground truth this model is calibrated to
reproduce distributionally: yield-vs-voltage (Table 5) and current-draw
spread (Figure 7, Section 4.2).
"""

from dataclasses import dataclass

import numpy as np

#: Measured 0.8 um IGZO TFT characteristics (Figure 1, mean / std dev).
VTH_V = (1.29, 0.19)
SUBTHRESHOLD_SWING_V_DEC = (0.1, 0.03)
IOFF_NA = (2.14, 0.59)
ION_UA = (34.85, 7.9)
HYSTERESIS_V = (0.04, 0.02)

#: Operating points used throughout the paper.
VDD_NOMINAL = 4.5
VDD_LOW = 3.0

#: Wafer-level systematic variation of the per-die speed/current factors
#: (lognormal sigma).  Calibrated so the fabrication model lands on the
#: paper's Table 5 yields and the 15.3% / 21.5% current-draw RSDs.
SPEED_SIGMA = 0.18
CURRENT_SIGMA = 0.145


@dataclass(frozen=True)
class TftCharacteristics:
    """One sampled device (used by device-level tests and docs)."""

    vth_v: float
    swing_v_dec: float
    ioff_na: float
    ion_ua: float
    hysteresis_v: float


def sample_device(rng):
    """Draw one TFT from the published Figure 1 distributions."""
    return TftCharacteristics(
        vth_v=float(rng.normal(*VTH_V)),
        swing_v_dec=float(rng.normal(*SUBTHRESHOLD_SWING_V_DEC)),
        ioff_na=max(0.0, float(rng.normal(*IOFF_NA))),
        ion_ua=max(0.1, float(rng.normal(*ION_UA))),
        hysteresis_v=float(rng.normal(*HYSTERESIS_V)),
    )


def drive_factor(vdd, vth=VTH_V[0]):
    """Relative n-type drive strength at ``vdd`` (1.0 at 4.5 V).

    A square-law saturation model: I_on ~ (VDD - Vth)^2.  At the paper's
    3 V point this gives ~0.28x the 4.5 V drive, which is what makes
    FlexiCore8's doubled adder chain miss 12.5 kHz timing at 3 V
    (Section 4.1) while FlexiCore4 mostly still passes.
    """
    headroom = max(vdd - vth, 0.05)
    nominal = (VDD_NOMINAL - vth) ** 2
    return (headroom ** 2) / nominal


def delay_factor(vdd, vth=VTH_V[0]):
    """Relative gate delay at ``vdd``: the load still swings ~VDD, so
    delay ~ VDD / I_on."""
    return (vdd / VDD_NOMINAL) / drive_factor(vdd, vth)


def static_current_factor(vdd):
    """Relative static current at ``vdd`` (resistive pull-up: I ~ V/R).

    Section 4.2 reports mean FlexiCore4 current of 1.1 mA at 4.5 V and
    0.73 mA at 3 V -- close to the 3/4.5 ratio this linear model gives.
    """
    return vdd / VDD_NOMINAL


def sample_speed_factor(rng, size=None):
    """Per-die speed multiplier (>1 means slower than typical)."""
    return np.exp(rng.normal(0.0, SPEED_SIGMA, size=size))

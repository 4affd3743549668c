"""Order-of-magnitude estimates for a Doppler-free two-photon experiment.

On-resonance transition rate, Gaussian-beam axis intensity, the polarization
decomposition of a circularly polarized beam quantized along a transverse
magnetic field, and the two Fabry-Perot figures (resonant transmission and
off-resonance isolation).

Unit convention for the rate: the intensity I is in W/m^2, the instrumental
width Gamma_f in rad/s, and the averaged squared two-photon matrix element
is the dimensionless atomic-unit value produced by the spectrum module.
The SI prefactor (4 pi a0^3 / (hbar c))^2 ~ 3.47e-9 m^4 J^-2 then yields a
rate in 1/s.

All functions are pure and safe for concurrent use.
"""

from __future__ import annotations

import math
from typing import NamedTuple

__all__ = [
    "BOHR_RADIUS_M",
    "HBAR_J_S",
    "SPEED_OF_LIGHT_M_S",
    "RATE_PREFACTOR_M4_PER_J2",
    "LaserParams",
    "CavityParams",
    "beam_axis_intensity",
    "rate_at_resonance",
    "transverse_field_decomposition",
    "cavity_transmission",
    "cavity_isolation_db",
]

# CODATA 2018 values.
BOHR_RADIUS_M = 5.29177210903e-11
HBAR_J_S = 1.05457181765e-34
SPEED_OF_LIGHT_M_S = 299792458.0  # exact

# (4 pi a0^3 / (hbar c))^2, the SI conversion between the dimensionless
# atomic-unit squared matrix element and the resonant two-photon rate.
RATE_PREFACTOR_M4_PER_J2 = (
    4.0 * math.pi * BOHR_RADIUS_M**3 / (HBAR_J_S * SPEED_OF_LIGHT_M_S)
) ** 2


class LaserParams(NamedTuple("LaserParams", [
    ("power_w", float), ("waist_m", float), ("gamma_f_rad_s", float),
])):
    """Excitation beam incident on the ions: power (W), Gaussian waist (m)
    and instrumental width of the transition (rad/s)."""

    __slots__ = ()

    def __new__(cls, power_w: float, waist_m: float, gamma_f_rad_s: float) -> "LaserParams":
        self = super().__new__(cls, power_w, waist_m, gamma_f_rad_s)
        for name, value in zip(self._fields, self):
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if power_w < 0.0:
            raise ValueError(f"power must be non-negative, got {power_w}")
        if waist_m <= 0.0:
            raise ValueError(f"waist must be positive, got {waist_m}")
        if gamma_f_rad_s <= 0.0:
            raise ValueError(f"instrumental width must be positive, got {gamma_f_rad_s}")
        return self


class CavityParams(NamedTuple("CavityParams", [("reflectivity", float), ("losses", float)])):
    """Fabry-Perot cavity with two identical mirrors of reflectivity R and
    fractional losses P; the mirror transmission is T = 1 - R - P."""

    __slots__ = ()

    def __new__(cls, reflectivity: float, losses: float) -> "CavityParams":
        self = super().__new__(cls, reflectivity, losses)
        if not 0.0 <= reflectivity <= 1.0:
            raise ValueError(f"reflectivity must lie in [0, 1], got {reflectivity}")
        if not 0.0 <= losses <= 1.0:
            raise ValueError(f"losses must lie in [0, 1], got {losses}")
        if self.transmission < 0.0:
            raise ValueError("R + P exceed 1: negative transmission")
        return self

    @property
    def transmission(self) -> float:
        return 1.0 - self.reflectivity - self.losses


def _finite_result(name: str, compute) -> float:
    """compute(), or a ValueError if it overflows or is not a finite number."""
    try:
        value = compute()
    except (ZeroDivisionError, OverflowError):
        value = math.inf
    if not math.isfinite(value):
        raise ValueError(f"{name} is not a finite number for these inputs")
    return value


def beam_axis_intensity(params: LaserParams) -> float:
    """On-axis intensity of a Gaussian beam, 2P / (pi w0^2), in W/m^2.

    Raises ValueError if the intensity overflows."""
    return _finite_result(
        "beam intensity", lambda: 2.0 * params.power_w / (math.pi * params.waist_m**2)
    )


def rate_at_resonance(intensity_w_m2: float, gamma_f_rad_s: float, q_sq: float) -> float:
    """On-resonance two-photon transition rate in 1/s:

        (4 pi a0^3 / (hbar c))^2 * (4 / Gamma_f) * I^2 * [Q]^2

    with [Q]^2 the averaged squared matrix element in atomic units.  Raises
    ValueError if the rate overflows.
    """
    if gamma_f_rad_s <= 0.0:
        raise ValueError("instrumental width must be positive (the rate diverges)")
    if intensity_w_m2 < 0.0 or q_sq < 0.0:
        raise ValueError("intensity and squared matrix element must be non-negative")
    return _finite_result(
        "rate",
        lambda: RATE_PREFACTOR_M4_PER_J2 * 4.0 / gamma_f_rad_s * intensity_w_m2**2 * q_sq,
    )


def transverse_field_decomposition(intensity_w_m2: float) -> tuple[float, float, float]:
    """Polarization split of a circularly polarized beam quantized along a
    transverse magnetic field: (pi, sigma-, sigma+) = (50%, 25%, 25%)."""
    if intensity_w_m2 < 0.0:
        raise ValueError("intensity must be non-negative")
    return (0.5 * intensity_w_m2, 0.25 * intensity_w_m2, 0.25 * intensity_w_m2)


def cavity_transmission(cavity: CavityParams) -> float:
    """Resonant transmission of the cavity: 1 / (1 + P/(1-R-P))^2."""
    net = cavity.transmission
    if net <= 0.0:
        raise ValueError("mirror transmission must be positive at resonance")
    return 1.0 / (1.0 + cavity.losses / net) ** 2


def cavity_isolation_db(cavity: CavityParams) -> float:
    """Off-resonance isolation ratio in dB:

        -10 log10[(1-R-P)^2 / (1+R)^2]
    """
    net = cavity.transmission
    if net <= 0.0:
        raise ValueError("mirror transmission must be positive off resonance")
    return -10.0 * math.log10(net**2 / (1.0 + cavity.reflectivity) ** 2)

"""Hyperfine structure and two-photon ro-vibrational spectra of H2+."""

__version__ = "0.1.0"

from .angular import HalfInt, clebsch_gordan, wigner3j, wigner6j
from .hyperfine import (
    HyperfineCoefficients,
    HyperfineEigenstate,
    HyperfineSolution,
    RoVibLevel,
    diagonalize_even,
    diagonalize_odd,
    fit_coefficients,
)
from .twophoton import (
    OrbitalReducedElements,
    PolarizationPair,
    averaged_sq_matrix_element,
    polarized_matrix_element,
    tensor_coefficients,
)
from .spectrum import SpectrumResult, TransitionLine, two_photon_spectrum

__all__ = [
    "__version__",
    "HalfInt",
    "wigner3j",
    "wigner6j",
    "clebsch_gordan",
    "RoVibLevel",
    "HyperfineCoefficients",
    "HyperfineEigenstate",
    "HyperfineSolution",
    "diagonalize_even",
    "diagonalize_odd",
    "fit_coefficients",
    "PolarizationPair",
    "OrbitalReducedElements",
    "tensor_coefficients",
    "averaged_sq_matrix_element",
    "polarized_matrix_element",
    "TransitionLine",
    "SpectrumResult",
    "two_photon_spectrum",
]

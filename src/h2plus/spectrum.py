"""Hyperfine-resolved two-photon spectra for a ro-vibrational transition.

Assembles every pair of lower and upper hyperfine sublevels into a line
list: per-photon frequency shifts in MHz and averaged squared matrix
elements per polarization pair in atomic units.  Frequencies follow the
per-photon convention throughout: a hyperfine energy difference contributes
half of itself to the photon frequency, and center frequencies are photon
frequencies (9.1 um wavelengths for the fundamental band).

Line computations are independent of each other; the result ordering is
fixed (ascending frequency shift) regardless of evaluation order.
"""

from __future__ import annotations

import json
import math
from json.encoder import encode_basestring_ascii as _json_string
from operator import itemgetter
from typing import TYPE_CHECKING, Iterable, NamedTuple, Sequence

from .angular import HalfInt
from .hyperfine import HyperfineEigenstate, HyperfineSolution, RoVibLevel
from .twophoton import (
    OrbitalReducedElements,
    PolarizationPair,
    _channel_sum,
    _orbital_elements,
    averaged_from_reduced,
    polarization_weights,
)

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "TransitionLine",
    "SpectrumResult",
    "FrequencyGrid",
    "line_position_shift",
    "two_photon_spectrum",
    "convolve_profile",
    "spectrum_to_csv",
    "spectrum_to_json",
    "format_shift",
    "format_intensity",
    "SHIFT_DECIMALS",
    "INTENSITY_SIGNIFICANT_DIGITS",
]

# Output precision used by every renderer: shifts carry 4 decimals in MHz,
# intensities 4 significant figures.
SHIFT_DECIMALS = 4
INTENSITY_SIGNIFICANT_DIGITS = 4
# The same conversions as `%` specifiers, for the writers' row templates,
# and the 'g' conversion that writes a rounded intensity for JSON.
_SHIFT_F = f"%.{SHIFT_DECIMALS}f"
_INTENSITY_E = f"%.{INTENSITY_SIGNIFICANT_DIGITS - 1}e"
_INTENSITY_G = f"%.{INTENSITY_SIGNIFICANT_DIGITS}g"


def format_shift(value: float) -> str:
    return f"{value:.{SHIFT_DECIMALS}f}"


def format_intensity(value: float) -> str:
    return f"{value:.{INTENSITY_SIGNIFICANT_DIGITS - 1}e}" if value else "0.000e+00"


class TransitionLine(NamedTuple):
    """One hyperfine component of a two-photon transition.

    delta_f is the per-photon frequency shift in MHz; intensities map each
    polarization pair to the averaged squared matrix element in atomic
    units.  Selection-forbidden combinations carry exact zeros.
    """

    lower_f: HalfInt
    lower_j: HalfInt
    upper_f: HalfInt
    upper_j: HalfInt
    delta_f_mhz: float
    intensity: dict[PolarizationPair, float]

    def label(self) -> str:
        return (
            f"({self.lower_f},{self.lower_j}) -> ({self.upper_f},{self.upper_j})"
        )


class SpectrumResult(NamedTuple):
    """Full line list of one ro-vibrational two-photon transition."""

    lower: RoVibLevel
    upper: RoVibLevel
    lines: tuple[TransitionLine, ...]
    pols: tuple[PolarizationPair, ...]
    center_frequency_mhz: float | None = None
    provenance: dict[str, str] = {}


def line_position_shift(lower: HyperfineEigenstate, upper: HyperfineEigenstate) -> float:
    """Per-photon frequency shift of a hyperfine component in MHz: half of
    the upper-minus-lower hyperfine energy difference."""
    return 0.5 * (upper.shift_mhz - lower.shift_mhz)


def two_photon_spectrum(
    lower_sol: HyperfineSolution,
    upper_sol: HyperfineSolution,
    orb: OrbitalReducedElements,
    pols: Sequence[PolarizationPair],
    center_frequency_mhz: float | None = None,
    provenance: dict[str, str] | None = None,
) -> SpectrumResult:
    """Enumerate all hyperfine sublevel pairs of the transition.

    Every pair is emitted, including those that are dark for all requested
    polarizations; lines are sorted by ascending frequency shift.

    The polarization weights (a00, a(2)_q) come from the per-process cache
    of `polarization_weights`, the reduced elements <gJ||Q(k)||eJ'> are
    computed once per line and rank through the channel sum of
    `hyperfine_reduced_q`, whose checks and per-transition numbers are taken
    once per call, and each intensity once per line and
    distinct weight pair from those numbers through the same
    `averaged_from_reduced` as `averaged_sq_matrix_element`, so both give
    identical floats.  The nine pairs carry four distinct weight pairs.
    """
    if lower_sol.level == upper_sol.level:
        raise ValueError("lower and upper levels must differ")
    pols = tuple(pols)
    # Pairs whose weights compare equal share one intensity.  The weights
    # enter only squared, so even 0.0 and -0.0 would give the same float.
    distinct: dict[tuple[float, float], int] = {}
    slots = [
        (pol, distinct.setdefault(polarization_weights(pol), len(distinct)))
        for pol in pols
    ]
    q0, q2 = _orbital_elements(lower_sol.level, upper_sol.level, orb)
    tl, tlp = 2 * lower_sol.level.L, 2 * upper_sol.level.L
    with_f32 = lower_sol.level.nuclear_spin == 1
    lines = []
    for lo in lower_sol.states:
        for up in upper_sol.states:
            tj, tjp = lo.j.twice, up.j.twice
            w1 = lo.c1 * up.c1
            w3 = lo.c3 * up.c3 if with_f32 else 0.0
            reduced0 = _channel_sum(tl, 0, tlp, tj, tjp, w1, w3, q0) if q0 != 0.0 else 0.0
            reduced2 = _channel_sum(tl, 4, tlp, tj, tjp, w1, w3, q2) if q2 != 0.0 else 0.0
            values = [
                averaged_from_reduced(a00, a2, reduced0, reduced2, tj)
                for a00, a2 in distinct
            ]
            intensity = {pol: values[slot] for pol, slot in slots}
            lines.append(
                TransitionLine(
                    lower_f=lo.f_tilde,
                    lower_j=lo.j,
                    upper_f=up.f_tilde,
                    upper_j=up.j,
                    delta_f_mhz=line_position_shift(lo, up),
                    intensity=intensity,
                )
            )
    lines.sort(
        key=lambda ln: (
            ln.delta_f_mhz,
            ln.lower_j.twice,
            ln.upper_j.twice,
            ln.lower_f.twice,
            ln.upper_f.twice,
        )
    )
    return SpectrumResult(
        lower=lower_sol.level,
        upper=upper_sol.level,
        lines=tuple(lines),
        pols=pols,
        center_frequency_mhz=center_frequency_mhz,
        provenance=dict(provenance or {}),
    )


def _numpy():
    """numpy, which only the profile functions below use.  It is the
    optional extra h2plus[profile], so its absence gets an error that says
    how to install it."""
    try:
        import numpy
    except ImportError as exc:
        raise ImportError(
            "FrequencyGrid.frequencies and convolve_profile need numpy: "
            "pip install 'h2plus[profile]'"
        ) from exc
    return numpy


class FrequencyGrid(NamedTuple("FrequencyGrid", [
    ("start_mhz", float), ("stop_mhz", float), ("step_mhz", float),
])):
    """Uniform frequency grid in MHz: start, stop (inclusive) and step."""

    __slots__ = ()

    def __new__(cls, start_mhz: float, stop_mhz: float, step_mhz: float) -> "FrequencyGrid":
        if step_mhz <= 0.0:
            raise ValueError(f"grid step must be positive, got {step_mhz}")
        if stop_mhz < start_mhz:
            raise ValueError("grid stop must not precede its start")
        return super().__new__(cls, start_mhz, stop_mhz, step_mhz)

    def frequencies(self) -> np.ndarray:
        np = _numpy()
        n = int(math.floor((self.stop_mhz - self.start_mhz) / self.step_mhz + 1e-9)) + 1
        return self.start_mhz + self.step_mhz * np.arange(n)


def convolve_profile(
    lines: Iterable[TransitionLine],
    pol: PolarizationPair,
    gamma_f_rad_s: float,
    grid: FrequencyGrid,
) -> tuple[np.ndarray, np.ndarray]:
    """Sample the spectrum as a sum of Lorentzians on a frequency grid.

    Each line contributes a peak-normalized Lorentzian of FWHM
    gamma_f/(2 pi) (converted to MHz) centered at its frequency shift, with
    peak height equal to the line intensity for the chosen polarization.
    Returns (frequencies_MHz, samples).  numpy is imported here and in
    `FrequencyGrid.frequencies` only, so line lists never load it.
    """
    np = _numpy()
    if gamma_f_rad_s <= 0.0:
        raise ValueError(f"instrumental width must be positive, got {gamma_f_rad_s}")
    freqs = grid.frequencies()
    if freqs.size == 0:
        raise ValueError("frequency grid is empty")
    fwhm_mhz = gamma_f_rad_s / (2.0 * math.pi) / 1e6
    half_width = 0.5 * fwhm_mhz
    samples = np.zeros_like(freqs)
    for line in lines:
        amplitude = line.intensity.get(pol, 0.0)
        if amplitude == 0.0:
            continue
        samples += amplitude * half_width**2 / (
            (freqs - line.delta_f_mhz) ** 2 + half_width**2
        )
    return freqs, samples


def _json_float(value: float) -> str:
    """A float as `json.dumps` writes it: its repr, or NaN/Infinity."""
    return float.__repr__(value) if math.isfinite(value) else json.dumps(value)


def _json_object(members: Iterable[tuple[str, str]], indent: str) -> str:
    """A JSON object of already-rendered (key, value) members, keys sorted,
    laid out as `json.dumps(indent=2)` lays out an object whose closing
    brace sits at `indent`."""
    members = sorted(members)
    if not members:
        return "{}"
    inner = indent + "  "
    body = ",\n".join(f"{inner}{_json_string(key)}: {value}" for key, value in members)
    return f"{{\n{body}\n{indent}}}"


def _json_intensity(value: float) -> str:
    """An intensity rounded to INTENSITY_SIGNIFICANT_DIGITS, as `json.dumps`
    writes it.

    For 1e-300 < |value| < 9999.5 the 'g' conversion writes the digits and
    the layout that repr gives the rounded float, save a missing ".0": both
    switch to an exponent below 1e-4, and normal floats are dense enough
    there that repr needs every one of the digits.  Larger values (where
    'g' switches to an exponent and repr does not), tiny and subnormal
    values and non-finite ones take the round trip through the rounded
    float.
    """
    if 1e-300 < abs(value) < 9999.5:
        text = _INTENSITY_G % value
        return text if "." in text or "e" in text else text + ".0"
    return _json_float(float(_INTENSITY_E % value))


class _FloatTexts(dict):
    """The text of each distinct float value, formatted on first use.

    Values key the memo, so floats that compare equal share one text.  Of
    those, only 0.0 and -0.0 can be written differently, so zeros are never
    stored: they take the text of their sign.  A NaN equals no other NaN,
    so it shares its text only with itself.
    """

    def __init__(self, format_value):
        super().__init__()
        self.format_value = format_value
        self.zeros = (format_value(0.0), format_value(-0.0))

    def __missing__(self, value: float) -> str:
        if not value:
            return self.zeros[math.copysign(1.0, value) < 0]
        text = self[value] = self.format_value(value)
        return text


def _intensity_reader(pols: Sequence[PolarizationPair]):
    """A function that reads a line's intensities for `pols` as a tuple, in
    the order of `pols`; `itemgetter` of one key returns a bare value."""
    if len(pols) == 1:
        get = itemgetter(pols[0])
        return lambda intensity: (get(intensity),)
    return itemgetter(*pols) if pols else lambda intensity: ()


def _json_level(level: RoVibLevel) -> str:
    return _json_object((("L", str(level.L)), ("v", str(level.v))), "  ")


def spectrum_to_csv(result: SpectrumResult, absolute: bool = False) -> str:
    """Render the line list as CSV with locale-independent formatting.

    Columns: L, v, F_lower, J_lower, F_upper, J_upper, delta_f_MHz and one
    intensity column per requested polarization pair; an absolute frequency
    column is appended on request.  No field ever needs quoting.

    Every row has one layout, so the body is one `%` row template (the
    `L,v` prefix and the conversions of `format_shift` and
    `format_intensity` baked in) repeated once per line and filled in one
    step.  Intensities enter as `value or 0.0`, which writes -0.0 as
    `format_intensity` does, "0.000e+00".
    """
    header = ["L", "v", "F_lower", "J_lower", "F_upper", "J_upper", "delta_f_MHz"]
    header += [f"intensity_{pol.token}" for pol in result.pols]
    center = result.center_frequency_mhz
    if absolute:
        if center is None:
            raise ValueError("no center frequency available for absolute output")
        header.append("absolute_f_MHz")
    row = (
        f"{result.lower.L},{result.lower.v},%s,%s,%s,%s,{_SHIFT_F}"
        + f",{_INTENSITY_E}" * len(result.pols)
        + (f",{_SHIFT_F}" if absolute else "")
        + "\n"
    )
    labels = {label: str(label) for label in {lab for line in result.lines for lab in line[:4]}}
    intensities = _intensity_reader(result.pols)
    fields = []
    for lower_f, lower_j, upper_f, upper_j, delta_f, intensity in result.lines:
        fields += (labels[lower_f], labels[lower_j], labels[upper_f], labels[upper_j], delta_f)
        fields += [value or 0.0 for value in intensities(intensity)]
        if absolute:
            fields.append(center + delta_f)
    return ",".join(header) + "\n" + row * len(result.lines) % tuple(fields)


def spectrum_to_json(result: SpectrumResult, absolute: bool = False) -> str:
    """Render the spectrum as JSON: keys sorted, two-space indent, strings
    and floats written as `json.dumps(..., indent=2, sort_keys=True)` writes
    them.  Shifts are rounded to SHIFT_DECIMALS, intensities to
    INTENSITY_SIGNIFICANT_DIGITS, one per distinct polarization token; a
    line is "dark" when none of these intensities is nonzero.  The absolute
    frequency appears on request when a center frequency is known.

    The line objects are one `%` row template (the keys, and the sorted
    token keys of the intensity object, baked in) repeated once per line
    and filled in one step; each distinct label and intensity is formatted
    once per call.
    """
    center = result.center_frequency_mhz
    absolute = absolute and center is not None
    by_token = sorted({pol.token: pol for pol in result.pols}.items())
    intensity_object = (
        "{" + ",".join(f"\n        {_json_string(token)}: %s" for token, _ in by_token)
        + "\n      }"
        if by_token
        else "{}"
    )
    row = (
        "    {\n"
        '      "F_lower": %s,\n'
        '      "F_upper": %s,\n'
        '      "J_lower": %s,\n'
        '      "J_upper": %s,\n'
        + ('      "absolute_f_MHz": %s,\n' if absolute else "")
        + '      "dark": %s,\n'
        '      "delta_f_MHz": %s,\n'
        f'      "intensity": {intensity_object}\n'
        "    }"
    )
    texts = _FloatTexts(_json_intensity)
    labels = {
        label: _json_string(str(label))
        for label in {lab for line in result.lines for lab in line[:4]}
    }
    intensities = _intensity_reader([pol for _, pol in by_token])
    fields = []
    for lower_f, lower_j, upper_f, upper_j, delta_f, intensity in result.lines:
        values = intensities(intensity)
        fields += (labels[lower_f], labels[upper_f], labels[lower_j], labels[upper_j])
        if absolute:
            fields.append(_json_float(round(center + delta_f, SHIFT_DECIMALS)))
        fields += ("false" if any(values) else "true", _json_float(round(delta_f, SHIFT_DECIMALS)))
        fields += map(texts.__getitem__, values)
    lines = ",\n".join([row] * len(result.lines)) % tuple(fields)
    tokens = [f"    {_json_string(pol.token)}" for pol in result.pols]
    members = (
        ("center_frequency_MHz", "null" if center is None else _json_float(center)),
        ("lines", "[\n" + lines + "\n  ]" if lines else "[]"),
        ("lower", _json_level(result.lower)),
        ("polarizations", "[\n" + ",\n".join(tokens) + "\n  ]" if tokens else "[]"),
        ("provenance", _json_object(
            ((key, _json_string(value)) for key, value in result.provenance.items()), "  "
        )),
        ("units", _json_object((("delta_f", '"MHz"'), ("intensity", '"a.u."')), "  ")),
        ("upper", _json_level(result.upper)),
    )
    return _json_object(members, "")

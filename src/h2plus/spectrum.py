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
from typing import TYPE_CHECKING, Iterable, NamedTuple, Sequence

from .angular import HalfInt
from .hyperfine import HyperfineEigenstate, HyperfineSolution, RoVibLevel
from .twophoton import (
    OrbitalReducedElements,
    PolarizationPair,
    averaged_from_reduced,
    hyperfine_reduced_q,
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

    @property
    def dark(self) -> bool:
        """True when every requested polarization has zero intensity."""
        return not any(self.intensity.values())

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

    @property
    def n_bright(self) -> int:
        return sum(1 for line in self.lines if not line.dark)


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
    computed once per line and rank, and each intensity once per line and
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
    lines = []
    for lo in lower_sol.states:
        for up in upper_sol.states:
            reduced0 = hyperfine_reduced_q(0, lo, up, orb)
            reduced2 = hyperfine_reduced_q(2, lo, up, orb)
            values = [
                averaged_from_reduced(a00, a2, reduced0, reduced2, lo.j.twice)
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
        import numpy as np

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
    import numpy as np

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
    writes it."""
    return _json_float(float(f"{value:.{INTENSITY_SIGNIFICANT_DIGITS - 1}e}"))


class _Texts(dict):
    """The text of each distinct key, formatted on first use."""

    def __init__(self, format_key):
        super().__init__()
        self.format_key = format_key

    def __missing__(self, key):
        text = self[key] = self.format_key(key)
        return text


class _FloatTexts(_Texts):
    """The text of each distinct float value.

    Values key the memo, so floats that compare equal share one text.  Of
    those, only 0.0 and -0.0 can be written differently, so zeros are never
    stored: they take the text of their sign.  A NaN equals no other NaN,
    so it shares its text only with itself.
    """

    def __init__(self, format_key):
        super().__init__(format_key)
        self.zeros = (format_key(0.0), format_key(-0.0))

    def __missing__(self, value: float) -> str:
        if not value:
            return self.zeros[math.copysign(1.0, value) < 0]
        text = self[value] = self.format_key(value)
        return text


def _label_texts(format_label) -> _Texts:
    """Texts of half-integer labels, each formatted once per writer call."""
    return _Texts(lambda label: format_label(str(label)))


def _json_level(level: RoVibLevel) -> str:
    return _json_object((("L", str(level.L)), ("v", str(level.v))), "  ")


def spectrum_to_csv(result: SpectrumResult, absolute: bool = False) -> str:
    """Render the line list as CSV with locale-independent formatting.

    Columns: L, v, F_lower, J_lower, F_upper, J_upper, delta_f_MHz and one
    intensity column per requested polarization pair; an absolute frequency
    column is appended on request.  No field ever needs quoting.
    """
    header = ["L", "v", "F_lower", "J_lower", "F_upper", "J_upper", "delta_f_MHz"]
    header += [f"intensity_{pol.token}" for pol in result.pols]
    center = result.center_frequency_mhz
    if absolute:
        if center is None:
            raise ValueError("no center frequency available for absolute output")
        header.append("absolute_f_MHz")
    rows = [",".join(header)]
    texts = _FloatTexts(format_intensity)
    labels = _label_texts(str)
    prefix = f"{result.lower.L},{result.lower.v}"
    for line in result.lines:
        row = [
            prefix,
            labels[line.lower_f],
            labels[line.lower_j],
            labels[line.upper_f],
            labels[line.upper_j],
            format_shift(line.delta_f_mhz),
        ]
        row += [texts[line.intensity[pol]] for pol in result.pols]
        if absolute:
            row.append(format_shift(center + line.delta_f_mhz))
        rows.append(",".join(row))
    rows.append("")
    return "\n".join(rows)


def spectrum_to_json(result: SpectrumResult, absolute: bool = False) -> str:
    """Render the spectrum as JSON: keys sorted, two-space indent, strings
    and floats written as `json.dumps(..., indent=2, sort_keys=True)` writes
    them.  Shifts are rounded to SHIFT_DECIMALS, intensities to
    INTENSITY_SIGNIFICANT_DIGITS, one per distinct polarization token; the
    absolute frequency appears on request when a center frequency is known.
    """
    center = result.center_frequency_mhz
    absolute = absolute and center is not None
    # one "key": prefix per distinct token, in sorted-token order
    by_token = sorted({pol.token: pol for pol in result.pols}.items())
    keys = [(f"\n        {_json_string(token)}: ", pol) for token, pol in by_token]
    texts = _FloatTexts(_json_intensity)
    labels = _label_texts(_json_string)
    lines = []
    for line in result.lines:
        intensity = (
            "{"
            + ",".join([key + texts[line.intensity[pol]] for key, pol in keys])
            + "\n      }"
            if keys
            else "{}"
        )
        absolute_f = (
            f'      "absolute_f_MHz": '
            f"{_json_float(round(center + line.delta_f_mhz, SHIFT_DECIMALS))},\n"
            if absolute
            else ""
        )
        lines.append(
            "    {\n"
            f'      "F_lower": {labels[line.lower_f]},\n'
            f'      "F_upper": {labels[line.upper_f]},\n'
            f'      "J_lower": {labels[line.lower_j]},\n'
            f'      "J_upper": {labels[line.upper_j]},\n'
            f"{absolute_f}"
            f'      "dark": {"true" if line.dark else "false"},\n'
            f'      "delta_f_MHz": {_json_float(round(line.delta_f_mhz, SHIFT_DECIMALS))},\n'
            f'      "intensity": {intensity}\n'
            "    }"
        )
    tokens = [f"    {_json_string(pol.token)}" for pol in result.pols]
    members = (
        ("center_frequency_MHz", "null" if center is None else _json_float(center)),
        ("lines", "[\n" + ",\n".join(lines) + "\n  ]" if lines else "[]"),
        ("lower", _json_level(result.lower)),
        ("polarizations", "[\n" + ",\n".join(tokens) + "\n  ]" if tokens else "[]"),
        ("provenance", _json_object(
            ((key, _json_string(value)) for key, value in result.provenance.items()), "  "
        )),
        ("units", _json_object((("delta_f", '"MHz"'), ("intensity", '"a.u."')), "  ")),
        ("upper", _json_level(result.upper)),
    )
    return _json_object(members, "")

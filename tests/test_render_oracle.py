"""The CSV and JSON writers against the renderers they replaced, byte for
byte: `json.dumps(..., indent=2, sort_keys=True)` over a dictionary that
mirrors the result, and `csv.writer` over the same fields.

Covers the bundled transitions and the seeded synthetic set, empty,
one-token, partial, duplicated and unsorted token lists, absolute output
with and without a center frequency, provenance with non-ASCII
characters and quotes, and non-finite values on a hand-built line; and
the `%` and 'g' conversions the writers use, against the formatters,
over all floats.
"""

import csv
import io
import json
import math
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from h2plus.angular import HalfInt
from h2plus.hyperfine import RoVibLevel
from h2plus.spectrum import (
    _INTENSITY_E,
    _SHIFT_F,
    INTENSITY_SIGNIFICANT_DIGITS,
    SHIFT_DECIMALS,
    SpectrumResult,
    TransitionLine,
    _json_float,
    _json_intensity,
    format_intensity,
    format_shift,
    spectrum_to_csv,
    spectrum_to_json,
    two_photon_spectrum,
)
from h2plus.twophoton import PolarizationPair

ALL_TOKENS = ("smsm", "smpi", "smsp", "pism", "pipi", "pisp", "spsm", "sppi", "spsp")
TOKEN_SETS = {
    "all": ALL_TOKENS,
    "first-3": ALL_TOKENS[:3],
    "none": (),
    "one": ("pipi",),
    "subset": ("spsp", "pism", "smsm", "pipi"),
    "duplicated-unsorted": ("pipi", "smsp", "pipi", "smsm", "smsp"),
    "reversed": ALL_TOKENS[::-1],
}
PROVENANCES = ({}, {"source": 'Karr et al. "é" \\ ✓', "fit": "Gauss–Newton\tv2"})
CENTER_MHZ = 32569919.581


def oracle_dict(result, absolute=False):
    """JSON-ready dictionary mirroring the spectrum result."""
    if absolute and result.center_frequency_mhz is None:
        raise ValueError("no center frequency available for absolute output")
    payload = {
        "lower": {"v": result.lower.v, "L": result.lower.L},
        "upper": {"v": result.upper.v, "L": result.upper.L},
        "center_frequency_MHz": result.center_frequency_mhz,
        "polarizations": [pol.token for pol in result.pols],
        "units": {"delta_f": "MHz", "intensity": "a.u."},
        "provenance": result.provenance,
        "lines": [],
    }
    for line in result.lines:
        row = {
            "F_lower": str(line.lower_f),
            "J_lower": str(line.lower_j),
            "F_upper": str(line.upper_f),
            "J_upper": str(line.upper_j),
            "delta_f_MHz": round(line.delta_f_mhz, SHIFT_DECIMALS),
            "intensity": {
                pol.token: float(f"{line.intensity[pol]:.{INTENSITY_SIGNIFICANT_DIGITS-1}e}")
                for pol in result.pols
            },
            "dark": not any(line.intensity[pol] for pol in result.pols),
        }
        if absolute:
            row["absolute_f_MHz"] = round(
                result.center_frequency_mhz + line.delta_f_mhz, SHIFT_DECIMALS
            )
        payload["lines"].append(row)
    return payload


def oracle_json(result, absolute=False):
    return json.dumps(oracle_dict(result, absolute), indent=2, sort_keys=True)


def oracle_csv(result, absolute=False):
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    header = ["L", "v", "F_lower", "J_lower", "F_upper", "J_upper", "delta_f_MHz"]
    header += [f"intensity_{pol.token}" for pol in result.pols]
    if absolute:
        if result.center_frequency_mhz is None:
            raise ValueError("no center frequency available for absolute output")
        header.append("absolute_f_MHz")
    writer.writerow(header)
    for line in result.lines:
        row = [
            result.lower.L,
            result.lower.v,
            str(line.lower_f),
            str(line.lower_j),
            str(line.upper_f),
            str(line.upper_j),
            format_shift(line.delta_f_mhz),
        ]
        row += [format_intensity(line.intensity[pol]) for pol in result.pols]
        if absolute:
            row.append(format_shift(result.center_frequency_mhz + line.delta_f_mhz))
        writer.writerow(row)
    return buffer.getvalue()


def assert_writers_match_oracle(result):
    for absolute in (False, True):
        if absolute and result.center_frequency_mhz is None:
            for render in (oracle_json, oracle_csv, spectrum_to_json, spectrum_to_csv):
                with pytest.raises(ValueError):
                    render(result, absolute)
        else:
            assert spectrum_to_json(result, absolute) == oracle_json(result, absolute)
            assert spectrum_to_csv(result, absolute) == oracle_csv(result, absolute)


@pytest.mark.parametrize("tokens", TOKEN_SETS.values(), ids=TOKEN_SETS)
def test_writers_match_old_renderers(bundled_transitions, synthetic_transitions, tokens):
    pols = [PolarizationPair.from_token(token) for token in tokens]
    transitions = bundled_transitions + synthetic_transitions
    for index, (lower_sol, upper_sol, orb) in enumerate(transitions):
        for center in (None, CENTER_MHZ + 1e3 * index):
            result = two_photon_spectrum(
                lower_sol, upper_sol, orb, pols,
                center_frequency_mhz=center,
                provenance=PROVENANCES[index % 2],
            )
            assert_writers_match_oracle(result)


def _line(shift, intensity):
    return TransitionLine(HalfInt(1), HalfInt(3), HalfInt(3), HalfInt(5), shift, intensity)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=str)
def test_non_finite_values_are_written_as_json_dumps_writes_them(value):
    pipi, spsp = PolarizationPair.from_token("pipi"), PolarizationPair.from_token("spsp")
    result = SpectrumResult(
        lower=RoVibLevel(0, 1),
        upper=RoVibLevel(1, 1),
        lines=(_line(-1.5, {pipi: value, spsp: 0.25}), _line(value, {pipi: 0.0, spsp: 0.0})),
        pols=(pipi, spsp),
        center_frequency_mhz=CENTER_MHZ,
        provenance=PROVENANCES[1],
    )
    assert_writers_match_oracle(result)
    text = spectrum_to_json(result, absolute=True)
    assert not re.search(r"\b-?(nan|inf)\b", text)
    assert re.search(r"\b(NaN|Infinity)\b", text)


def test_empty_line_list():
    result = SpectrumResult(RoVibLevel(0, 0), RoVibLevel(1, 0), (), ())
    assert_writers_match_oracle(result)


def _hand_built(lines, pols):
    return SpectrumResult(RoVibLevel(0, 1), RoVibLevel(1, 1), lines, pols, CENTER_MHZ)


PIPI, SPSP, SMSM, PISP = (PolarizationPair.from_token(t) for t in ("pipi", "spsp", "smsm", "pisp"))


def test_signed_zeros_are_written_apart():
    # 0.0 == -0.0, but JSON writes them as "0.0" and "-0.0"
    result = _hand_built(
        (_line(-1.5, {PIPI: 0.0, SPSP: -0.0}), _line(2.0, {PIPI: -0.0, SPSP: 0.0})),
        (PIPI, SPSP),
    )
    assert_writers_match_oracle(result)
    text = spectrum_to_json(result)
    assert '"pipi": 0.0' in text and '"spsp": -0.0' in text
    assert '"pipi": -0.0' in text and '"spsp": 0.0' in text


def test_shared_values_across_pairs_and_lines():
    shared, other = 1.2345678e-6, 9.87e-7
    result = _hand_built(
        (
            _line(-3.0, {PIPI: shared, SPSP: shared, SMSM: other, PISP: shared}),
            _line(-1.0, {PIPI: other, SPSP: shared, SMSM: other, PISP: 0.0}),
            _line(4.0, {PIPI: shared, SPSP: -0.0, SMSM: shared, PISP: other}),
        ),
        (PISP, SPSP, PIPI, SMSM),
    )
    assert_writers_match_oracle(result)


def test_nan_in_two_objects():
    first, second = float("nan"), float("nan")
    assert first is not second
    result = _hand_built(
        (
            _line(-1.0, {PIPI: first, SPSP: second}),
            _line(1.0, {PIPI: second, SPSP: 0.5}),
            _line(3.0, {PIPI: 0.5, SPSP: first}),
        ),
        (PIPI, SPSP),
    )
    assert any(result.lines[0].intensity.values())
    assert_writers_match_oracle(result)


def test_dark_reads_only_the_written_polarizations():
    # spsp is bright but not written, so the line is dark in what is written
    result = _hand_built((_line(-1.0, {PIPI: 0.0, SPSP: 0.5}),), (PIPI,))
    assert_writers_match_oracle(result)
    assert '"dark": true' in spectrum_to_json(result)


LAYOUT_EDGES = (
    9999.5, 9999.4999, 1e4, 9.9995e-5, 9.99949e-5, 1e-300, 1.0000001e-300,
    2.2250738585072014e-308, 5e-324, 9.9995e15, 1e16, 1.7976931348623157e308, 2.0, 0.0,
)


def _with_examples(values):
    def decorate(test):
        for value in values:
            test = example(value)(example(-value)(test))
        return test
    return decorate


@settings(max_examples=500, deadline=None)
@given(st.floats() | st.floats(min_value=-2e4, max_value=2e4))
@_with_examples(LAYOUT_EDGES)
def test_conversions_match_the_formatters(value):
    # the JSON intensity text is the repr of the float rounded as
    # format_intensity rounds it; the reference keeps the sign of -0.0,
    # which format_intensity writes as "0.000e+00" and JSON as "-0.0"
    rounded = float(f"{value:.{INTENSITY_SIGNIFICANT_DIGITS - 1}e}")
    assert _json_intensity(value) == _json_float(rounded)
    assert _INTENSITY_E % (value or 0.0) == format_intensity(value)
    assert _SHIFT_F % value == format_shift(value)

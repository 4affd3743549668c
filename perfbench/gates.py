"""Correctness gates applied to every timed op after its timer stops.

The gates are written independently of the program's own `validate`
module: tolerances and closed-form polarization weights are restated here,
and reference values are read straight from the bundled JSON fixtures, so a
change to the program cannot loosen the gate it is measured against.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
REFERENCE_DIR = ROOT / "src" / "h2plus" / "data" / "reference"
BUNDLED_DATA_DIR = ROOT / "src" / "h2plus" / "data"

ALL_TOKENS = ("smsm", "smpi", "smsp", "pism", "pipi", "pisp", "spsm", "sppi", "spsp")
MIRROR_GROUPS = (("smsm", "spsp"), ("smsp", "spsm"), ("pisp", "pism", "sppi", "smpi"))

# Squared polarization weights (a2^2, a00^2) of each token in closed form.
TENSOR_SQ = {
    "smsm": (1.0, 0.0),
    "smpi": (0.5, 0.0),
    "smsp": (1.0 / 6.0, 1.0 / 3.0),
    "pism": (0.5, 0.0),
    "pipi": (2.0 / 3.0, 1.0 / 3.0),
    "pisp": (0.5, 0.0),
    "spsm": (1.0 / 6.0, 1.0 / 3.0),
    "sppi": (0.5, 0.0),
    "spsp": (1.0, 0.0),
}

# The published-value tolerances of the regression suite.
SHIFT_TOL_MHZ = 1e-4
MIXING_TOL = 1e-5
LINE_SHIFT_TOL_MHZ = 1e-3
INTENSITY_ABS_TOL = 5e-4
SATELLITE_REL_TOL = 0.01
SATELLITE_THRESHOLD = 1e-4
ZERO_TOL = 1e-12
FIT_RESIDUAL_LIMIT_MHZ = 1e-3
SUM_RULE_TOL = 1e-12

# Slack for values read back from printed output: half a unit in the last
# printed digit (4 decimals for shifts, 6 for mixings, 4 significant
# figures for intensities).
PRINTED_SHIFT_SLACK = 5e-5
PRINTED_MIXING_SLACK = 5e-7
PRINTED_INTENSITY_REL_SLACK = 5e-4

# Published experimental estimates and their tolerances.
RATE_CIRCULAR = (0.7, 0.07)
RATE_LINEAR = (1.7, 0.17)
CAVITY_TRANSMISSION = (0.90, 0.009)
CAVITY_ISOLATION_DB = (40.0, 0.4)


class GateError(Exception):
    """An op's output failed its correctness gate."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise GateError(message)


def _load(name: str) -> dict:
    return json.loads((REFERENCE_DIR / name).read_text(encoding="utf-8"))


def reference_lines() -> dict[int, list[dict]]:
    """Published line lists keyed by L of the (0,L)->(1,L) transition."""
    return {t["L_lower"]: t["lines"] for t in _load("two_photon_lines.json")["transitions"]}


def reference_levels() -> dict[tuple[int, int], dict[tuple[str, str], tuple]]:
    """Published (shift, C1, C3) per (F~, J) keyed by (v, L); C1/C3 are None
    for even L, whose states are pure."""
    levels: dict[tuple[int, int], dict] = {}
    for entry in _load("levels_even.json")["levels"]:
        L = entry["L"]
        states = {("1/2", f"{2 * L + 1}/2"): (entry["shift_upper_J_MHz"], None, None)}
        if "shift_lower_J_MHz" in entry:
            states[("1/2", f"{2 * L - 1}/2")] = (entry["shift_lower_J_MHz"], None, None)
        levels[(entry["v"], L)] = states
    for entry in _load("levels_odd.json")["levels"]:
        levels[(entry["v"], entry["L"])] = {
            (s["F_tilde"], s["J"]): (s["shift_MHz"], s["C1"], s["C3"]) for s in entry["states"]
        }
    return levels


# --- spectrum rows -------------------------------------------------------
# A row is (F_lower, J_lower, F_upper, J_upper, delta_f_MHz, {token: I}).


def rows_from_result(result) -> list[tuple]:
    """Rows of an in-process spectrum result."""
    return [
        (str(ln.lower_f), str(ln.lower_j), str(ln.upper_f), str(ln.upper_j),
         ln.delta_f_mhz, {p.token: value for p, value in ln.intensity.items()})
        for ln in result.lines
    ]


def check_sum_rule(rows: list[tuple], L: int, q0: float, q2: float) -> None:
    """Summed over upper states, each lower state's intensity for a token is
    sum_k a_k^2 Q_k^2 / ((2k+1)(2L+1)) (6j orthogonality)."""
    sums: dict[tuple, float] = {}
    for f_lo, j_lo, _, _, _, intensity in rows:
        for token, value in intensity.items():
            sums[(f_lo, j_lo, token)] = sums.get((f_lo, j_lo, token), 0.0) + value
    require(bool(sums), "spectrum has no lines")
    for (f_lo, j_lo, token), total in sums.items():
        a2_sq, a00_sq = TENSOR_SQ[token]
        expected = (a2_sq * q2 * q2 / 5.0 + a00_sq * q0 * q0) / (2 * L + 1)
        require(
            abs(total - expected) <= SUM_RULE_TOL * max(1.0, expected),
            f"sum rule L={L} ({f_lo},{j_lo}) {token}: {total!r} != {expected!r}",
        )


def check_mirrors(rows: list[tuple]) -> None:
    """Mirror polarization tokens give exactly equal intensities."""
    for row in rows:
        intensity = row[5]
        for group in MIRROR_GROUPS:
            values = {intensity[t] for t in group if t in intensity}
            require(len(values) <= 1, f"mirror tokens {group} differ on {row[:4]}: {values}")


def intensity_ok(expected: float, actual: float, rel_slack: float = 0.0) -> bool:
    deviation = abs(actual - expected)
    if expected == 0.0:
        return deviation <= ZERO_TOL
    if expected <= SATELLITE_THRESHOLD:
        return deviation <= (SATELLITE_REL_TOL + rel_slack) * expected
    return deviation <= INTENSITY_ABS_TOL + rel_slack * expected


def check_reference(rows: list[tuple], reference: list[dict], printed: bool = False) -> None:
    """Every published line is present and within the published tolerances."""
    shift_tol = LINE_SHIFT_TOL_MHZ + (PRINTED_SHIFT_SLACK if printed else 0.0)
    rel_slack = PRINTED_INTENSITY_REL_SLACK if printed else 0.0
    computed = {row[:4]: row for row in rows}
    for ref in reference:
        key = (ref["F_lower"], ref["J_lower"], ref["F_upper"], ref["J_upper"])
        require(key in computed, f"no line {key}")
        row = computed[key]
        require(abs(row[4] - ref["delta_f_MHz"]) <= shift_tol,
                 f"line {key}: shift {row[4]} vs {ref['delta_f_MHz']}")
        for token, expected in ref["intensity"].items():
            if token in row[5]:
                require(intensity_ok(expected, row[5][token], rel_slack),
                         f"line {key} {token}: {row[5][token]} vs {expected}")


def check_levels(states: dict[tuple[str, str], tuple], reference: dict, printed: bool = False) -> None:
    """Shifts within 1e-4 MHz and mixings within 1e-5 of the published values."""
    shift_tol = SHIFT_TOL_MHZ + (PRINTED_SHIFT_SLACK if printed else 0.0)
    mix_tol = MIXING_TOL + (PRINTED_MIXING_SLACK if printed else 0.0)
    require(set(states) == set(reference),
             f"states {sorted(states)} != published {sorted(reference)}")
    for key, (shift, c1, c3) in reference.items():
        got_shift, got_c1, got_c3 = states[key]
        require(abs(got_shift - shift) <= shift_tol, f"state {key}: shift {got_shift} vs {shift}")
        if c1 is not None:
            require(max(abs(got_c1 - c1), abs(got_c3 - c3)) <= mix_tol,
                     f"state {key}: mixing ({got_c1}, {got_c3}) vs ({c1}, {c3})")


def states_from_solution(solution) -> dict[tuple[str, str], tuple]:
    return {(str(s.f_tilde), str(s.j)): (s.shift_mhz, s.c1, s.c3) for s in solution.states}


def check_convolution(freqs, samples, rows: list[tuple], token: str, half_width: float) -> None:
    """The sampled profile is non-negative, peaks between the strongest line
    and the summed intensity, and integrates to pi * half_width * sum(I)."""
    intensities = [row[5][token] for row in rows]
    total = sum(intensities)
    require(float(samples.min()) >= 0.0, "negative profile sample")
    peak = float(samples.max())
    require(max(intensities) * (1 - 1e-3) <= peak <= total * (1 + 1e-9),
             f"profile peak {peak} outside [{max(intensities)}, {total}]")
    step = float(freqs[1] - freqs[0])
    area = float(samples.sum()) * step
    expected = math.pi * half_width * total
    require(abs(area - expected) <= 2e-3 * expected, f"profile area {area} vs {expected}")


# --- printed CLI output ----------------------------------------------------

_NUMBER = r"[-+]?\d+(?:\.\d*)?(?:[eE][-+]?\d+)?"


def parse_levels_table(text: str) -> dict[tuple[str, str], tuple]:
    states = {}
    for line in text.splitlines():
        fields = line.split()
        if len(fields) == 5 and "/" in fields[0] and "/" in fields[1]:
            states[(fields[0], fields[1])] = tuple(float(x) for x in fields[2:])
    require(bool(states), "no states in levels output")
    return states


def parse_spectrum_table(text: str) -> list[tuple]:
    lines = text.splitlines()
    header = next((ln for ln in lines if "delta_f (MHz)" in ln), None)
    require(header is not None, "no header in spectrum table")
    tokens = re.findall(r"\[(\w+)\]", header)
    rows = []
    pattern = re.compile(r"^\s*\(([\d/]+),([\d/]+)\)\s+\(([\d/]+),([\d/]+)\)\s+(.*)$")
    for line in lines:
        match = pattern.match(line)
        if match:
            values = [float(x) for x in match.group(5).split()]
            require(len(values) == 1 + len(tokens), f"malformed row {line!r}")
            rows.append(match.groups()[:4] + (values[0], dict(zip(tokens, values[1:]))))
    return rows


def parse_spectrum_csv(text: str) -> list[tuple]:
    reader = csv.DictReader(io.StringIO(text))
    rows = []
    for rec in reader:
        intensity = {k[len("intensity_"):]: float(v) for k, v in rec.items()
                     if k.startswith("intensity_")}
        rows.append((rec["F_lower"], rec["J_lower"], rec["F_upper"], rec["J_upper"],
                     float(rec["delta_f_MHz"]), intensity))
    return rows


def parse_spectrum_json(text: str) -> list[tuple]:
    payload = json.loads(text)
    return [
        (ln["F_lower"], ln["J_lower"], ln["F_upper"], ln["J_upper"], float(ln["delta_f_MHz"]),
         {k: float(v) for k, v in ln["intensity"].items()})
        for ln in payload["lines"]
    ]


def _labelled_number(text: str, label: str) -> float:
    match = re.search(re.escape(label) + r"\s*(" + _NUMBER + ")", text)
    require(match is not None, f"no {label!r} in output")
    return float(match.group(1))


def _near(value: float, target: tuple[float, float], what: str) -> None:
    require(abs(value - target[0]) <= target[1], f"{what} {value} vs {target[0]} +- {target[1]}")


def check_rate(text: str, transverse: bool) -> None:
    if transverse:
        _near(_labelled_number(text, "rate (pi component):"), RATE_LINEAR, "linear rate")
    else:
        _near(_labelled_number(text, "rate:"), RATE_CIRCULAR, "circular rate")


def check_cavity(text: str) -> None:
    _near(_labelled_number(text, "resonant transmission:"), CAVITY_TRANSMISSION, "transmission")
    _near(_labelled_number(text, "off-resonance isolation:"), CAVITY_ISOLATION_DB, "isolation")


def check_validate(text: str) -> None:
    checks = [ln for ln in text.splitlines() if re.search(r"\s(PASS|FAIL)\s", ln)]
    require(bool(checks), "validate printed no checks")
    require(all(" PASS " in ln for ln in checks), "a validate check failed")
    require(f"all {len(checks)} checks passed" in text, "validate summary missing")

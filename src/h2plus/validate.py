"""Regression of the computed output against the bundled published data.

Each named check recomputes one slice of the published results from the
shipped data files and reports its maximum deviation against the reference
fixtures: even- and odd-L level structure, polarization tensor weights,
the four line lists of the fundamental band, and the ingested orbital
element and center-frequency files themselves.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import NamedTuple

from .datafiles import DataSet, default_data_dir
from .hyperfine import RoVibLevel
from .twophoton import PolarizationPair, polarization_weights

__all__ = [
    "CheckResult",
    "selected_checks",
    "run_checks",
    "intensity_within_tolerance",
    "SHIFT_TOLERANCE_MHZ",
    "MIXING_TOLERANCE",
    "LINE_SHIFT_TOLERANCE_MHZ",
    "INTENSITY_ABS_TOLERANCE",
    "SATELLITE_REL_TOLERANCE",
    "SATELLITE_THRESHOLD",
]

SHIFT_TOLERANCE_MHZ = 1e-4
MIXING_TOLERANCE = 1e-5
LINE_SHIFT_TOLERANCE_MHZ = 1e-3
INTENSITY_ABS_TOLERANCE = 5e-4
SATELLITE_REL_TOLERANCE = 0.01
SATELLITE_THRESHOLD = 1e-4
TENSOR_TOLERANCE = 1e-14

# Keys of the bundled reference fixtures.  A check compares the keys it read
# with these, so a missing, repeated or stray row fails instead of checking less.
# The (F, J, F', J') keys of a transition's lines are those of the line list
# the kernel computes for it.
EVEN_LEVEL_KEYS = ((0, 0), (1, 0), (0, 2), (1, 2))
ODD_LEVEL_KEYS = ((0, 1), (0, 3), (1, 1), (1, 3))
TRANSITION_KEYS = tuple(((0, L), (1, L)) for L in (0, 2, 1, 3))

STANDARD_POLS = (
    PolarizationPair.from_token("pipi"),
    PolarizationPair.from_token("spsp"),
    PolarizationPair.from_token("spsm"),
)


def intensity_within_tolerance(expected: float, actual: float) -> bool:
    """Published intensities must match within 5e-4 absolute; satellite
    lines at or below 1e-4 must instead match within 1% relative."""
    deviation = abs(actual - expected)
    if expected <= SATELLITE_THRESHOLD:
        if expected == 0.0:
            return deviation <= 1e-12
        return deviation <= SATELLITE_REL_TOLERANCE * expected
    return deviation <= INTENSITY_ABS_TOLERANCE


class CheckResult(NamedTuple):
    """Outcome of one validation check."""

    name: str
    description: str
    max_deviation: float
    tolerance: float
    passed: bool
    details: list[str]

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"{self.name:<20} {status}  max deviation {self.max_deviation:.3e} "
            f"(tolerance {self.tolerance:.0e})  {self.description}"
        )


def _line_key(row: dict) -> tuple[str, str, str, str]:
    return (row["F_lower"], row["J_lower"], row["F_upper"], row["J_upper"])


def _key_details(what: str, expected, found) -> list[str]:
    """A detail line for every expected key a fixture lacks, every key it
    repeats and every key it should not hold."""
    counts = Counter(found)
    details = [f"reference fixture lacks {what} {key}" for key in expected if key not in counts]
    for key, n in counts.items():
        if n > 1:
            details.append(f"reference fixture repeats {what} {key} ({n} rows)")
        elif key not in expected:
            details.append(f"reference fixture has unexpected {what} {key}")
    return details


def _check_even_levels(active: DataSet, _bundled: DataSet) -> CheckResult:
    active.coefficients  # read first: a missing directory names the coefficients file
    worst = 0.0
    reference = active.levels_even
    details = _key_details(
        "even level (v, L)", EVEN_LEVEL_KEYS, [(e["v"], e["L"]) for e in reference]
    )
    for entry in reference:
        v, L = entry["v"], entry["L"]
        solution = active.solve(RoVibLevel(v, L))
        expected = {2 * L + 1: entry["shift_upper_J_MHz"]}
        if "shift_lower_J_MHz" in entry:
            expected[2 * L - 1] = entry["shift_lower_J_MHz"]
        for state in solution.states:
            if state.j.twice not in expected:
                details.append(f"(v={v},L={L}) J={state.j}: no reference shift")
                continue
            dev = abs(state.shift_mhz - expected[state.j.twice])
            worst = max(worst, dev)
            if dev > SHIFT_TOLERANCE_MHZ:
                details.append(f"(v={v},L={L}) J={state.j}: deviation {dev:.2e} MHz")
    return CheckResult(
        "even-levels",
        "even-L shifts from the shipped c_e",
        worst,
        SHIFT_TOLERANCE_MHZ,
        worst <= SHIFT_TOLERANCE_MHZ and not details,
        details,
    )


def _check_odd_levels(active: DataSet, _bundled: DataSet) -> CheckResult:
    active.coefficients  # read first: a missing directory names the coefficients file
    worst_shift = 0.0
    worst_mix = 0.0
    references = active.levels_odd
    details = _key_details(
        "odd level (v, L)", ODD_LEVEL_KEYS, [(r.level.v, r.level.L) for r in references]
    )
    for reference in references:
        v, L = reference.level.v, reference.level.L
        solution = active.solve(reference.level)
        if len(reference.states) != len(solution.states):
            details.append(
                f"(v={v},L={L}): reference fixture has {len(reference.states)} "
                f"states, expected {len(solution.states)}"
            )
        for ref_state in reference.states:
            try:
                state = solution.state(ref_state.f_tilde, ref_state.j)
            except KeyError as exc:
                details.append(str(exc.args[0]))
                continue
            shift_dev = abs(state.shift_mhz - ref_state.shift_mhz)
            mix_dev = max(abs(state.c1 - ref_state.c1), abs(state.c3 - ref_state.c3))
            worst_shift = max(worst_shift, shift_dev)
            worst_mix = max(worst_mix, mix_dev)
            if shift_dev > SHIFT_TOLERANCE_MHZ or mix_dev > MIXING_TOLERANCE:
                details.append(
                    f"(v={v},L={L}) {state.label()}: shift dev {shift_dev:.2e} MHz, "
                    f"mixing dev {mix_dev:.2e}"
                )
    passed = (
        worst_shift <= SHIFT_TOLERANCE_MHZ and worst_mix <= MIXING_TOLERANCE and not details
    )
    return CheckResult(
        "odd-levels",
        f"odd-L shifts and mixings from fitted constants (mixing dev {worst_mix:.3e})",
        worst_shift,
        SHIFT_TOLERANCE_MHZ,
        passed,
        details,
    )


# The nine polarization weights in closed form: (token, a2[q1+q2], a00).
_EXPECTED_TENSOR = {
    "smsm": (1.0, 0.0),
    "smpi": (math.sqrt(2.0) / 2.0, 0.0),
    "smsp": (math.sqrt(6.0) / 6.0, math.sqrt(3.0) / 3.0),
    "pism": (math.sqrt(2.0) / 2.0, 0.0),
    "pipi": (math.sqrt(2.0 / 3.0), -math.sqrt(3.0) / 3.0),
    "pisp": (math.sqrt(2.0) / 2.0, 0.0),
    "spsm": (math.sqrt(6.0) / 6.0, math.sqrt(3.0) / 3.0),
    "sppi": (math.sqrt(2.0) / 2.0, 0.0),
    "spsp": (1.0, 0.0),
}


def _check_tensor(_active: DataSet, _bundled: DataSet) -> CheckResult:
    worst = 0.0
    details = []
    for token, (a2_expected, a00_expected) in _EXPECTED_TENSOR.items():
        a00, a2 = polarization_weights(PolarizationPair.from_token(token))
        dev = max(abs(a2 - a2_expected), abs(a00 - a00_expected))
        worst = max(worst, dev)
        if dev > TENSOR_TOLERANCE:
            details.append(f"{token}: deviation {dev:.2e}")
    return CheckResult(
        "tensor-coefficients",
        "polarization tensor weights against their closed forms",
        worst,
        TENSOR_TOLERANCE,
        worst <= TENSOR_TOLERANCE,
        details,
    )


def _check_spectra(active: DataSet, _bundled: DataSet) -> CheckResult:
    active.coefficients, active.orbital  # read before the fixture, in the command's order
    worst_shift = 0.0
    worst_strong = 0.0
    transitions = active.lines
    keys = [
        ((t["v_lower"], t["L_lower"]), (t["v_upper"], t["L_upper"])) for t in transitions
    ]
    details = _key_details("transition", TRANSITION_KEYS, keys)
    for key, transition in zip(keys, transitions):
        lower = RoVibLevel(*key[0])
        upper = RoVibLevel(*key[1])
        result = active.spectrum(lower, upper, STANDARD_POLS)
        computed = {
            (str(ln.lower_f), str(ln.lower_j), str(ln.upper_f), str(ln.upper_j)): ln
            for ln in result.lines
        }
        details += _key_details(
            f"{key[0]}->{key[1]} line (F, J, F', J')",
            computed,
            [_line_key(row) for row in transition["lines"]],
        )
        for row in transition["lines"]:
            line = computed.get(_line_key(row))
            if line is None:  # an unexpected key, reported above
                continue
            shift_dev = abs(line.delta_f_mhz - row["delta_f_MHz"])
            worst_shift = max(worst_shift, shift_dev)
            if shift_dev > LINE_SHIFT_TOLERANCE_MHZ:
                details.append(
                    f"L={lower.L} {line.label()}: shift deviation {shift_dev:.2e} MHz"
                )
            for pol in STANDARD_POLS:
                expected = row["intensity"].get(pol.token)
                if expected is None:
                    details.append(f"L={lower.L} {line.label()}: no published {pol.token} intensity")
                    continue
                actual = line.intensity[pol]
                if not intensity_within_tolerance(expected, actual):
                    details.append(
                        f"L={lower.L} {line.label()} {pol.token}: "
                        f"expected {expected:.4g}, got {actual:.4g}"
                    )
                if expected > SATELLITE_THRESHOLD:
                    worst_strong = max(worst_strong, abs(actual - expected))
    passed = not details and worst_shift <= LINE_SHIFT_TOLERANCE_MHZ
    return CheckResult(
        "spectra",
        f"line lists of the fundamental band (worst shift dev {worst_shift:.3e} MHz)",
        worst_strong,
        INTENSITY_ABS_TOLERANCE,
        passed,
        details,
    )


def _check_orbital_elements(active: DataSet, bundled: DataSet) -> CheckResult:
    reference = bundled.orbital
    ingested = active.orbital
    worst = 0.0
    details = []
    for key, ref in reference.items():
        if key not in ingested:
            details.append(f"missing orbital elements for {key}")
            continue
        got = ingested[key]
        dev = max(abs(got.q0 - ref.q0), abs(got.q2 - ref.q2))
        worst = max(worst, dev)
        if dev > 0.0:
            details.append(f"{key}: deviation {dev:.2e} a.u.")
    return CheckResult(
        "orbital-elements",
        "ingested reduced orbital elements against the bundled values",
        worst,
        0.0,
        not details,
        details,
    )


def _check_centers(active: DataSet, bundled: DataSet) -> CheckResult:
    reference = bundled.centers
    ingested = active.centers
    worst = 0.0
    details = []
    for L, ref in reference.items():
        if L not in ingested:
            details.append(f"missing center frequency for L={L}")
            continue
        dev = abs(ingested[L]["nu_2ph_MHz"] - ref["nu_2ph_MHz"])
        worst = max(worst, dev)
        if dev > 0.0:
            details.append(f"L={L}: deviation {dev:.6f} MHz")
    return CheckResult(
        "center-frequencies",
        "ingested spin-independent center frequencies against the bundled values",
        worst,
        0.0,
        not details,
        details,
    )


_CHECKS = {
    "even-levels": _check_even_levels,
    "odd-levels": _check_odd_levels,
    "tensor-coefficients": _check_tensor,
    "spectra": _check_spectra,
    "orbital-elements": _check_orbital_elements,
    "center-frequencies": _check_centers,
}


def selected_checks(names=None) -> list[str]:
    """The checks to run: `names` in order, or every check when none are
    given.  An unknown or repeated name is a ValueError."""
    if not names:
        return list(_CHECKS)
    unknown = [name for name in names if name not in _CHECKS]
    if unknown:
        raise ValueError(
            f"unknown check(s) {', '.join(unknown)}; available: {', '.join(_CHECKS)}"
        )
    if len(set(names)) < len(names):
        raise ValueError(f"repeated check in --check {' '.join(names)}")
    return list(names)


def run_checks(names=None, data_dir=None) -> list[CheckResult]:
    """Run the requested checks (all by default) against a data directory."""
    selected = selected_checks(names)
    active = DataSet(data_dir)
    bundled = active if active.path == default_data_dir() else DataSet(default_data_dir())
    return [_CHECKS[name](active, bundled) for name in selected]

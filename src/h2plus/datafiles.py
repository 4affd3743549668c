"""Loading and resolution of the bundled data files.

Three files drive the computations: fitted hyperfine coefficients per
(v, L), reduced orbital two-photon elements per ro-vibrational transition,
and spin-independent center frequencies.  A reference/ subdirectory holds
the published level shifts, mixing coefficients and line lists used by the
validation command and the regression tests.

The data directory is the explicit path a caller gives, or the package's
bundled data when none is given; nothing else chooses it.
`DataSet` is the one reader of a directory for the command line and the
validation checks: it reads each file on first use and at most once.
"""

from __future__ import annotations

import json
import math
import os
from contextlib import contextmanager
from functools import cached_property
from pathlib import Path
from typing import NamedTuple, Sequence

from . import DataError
from .angular import HalfInt, _label
from .hyperfine import (
    L_MAX,
    HyperfineCoefficients,
    HyperfineEigenstate,
    HyperfineSolution,
    RoVibLevel,
    diagonalize_even,
    diagonalize_odd,
)
from .spectrum import SpectrumResult, two_photon_spectrum
from .twophoton import OrbitalReducedElements, PolarizationPair

__all__ = [
    "DataError",
    "DataSet",
    "L_MAX",
    "default_data_dir",
    "resolve_data_dir",
    "CoefficientRecord",
    "load_coefficients",
    "load_orbital_elements",
    "load_center_frequencies",
    "solve_level",
    "load_reference_levels_even",
    "load_reference_levels_odd",
    "load_reference_lines",
]

COEFFICIENTS_FILE = "hyperfine_coefficients.json"
ORBITAL_FILE = "orbital_reduced_elements.json"
CENTERS_FILE = "center_frequencies.json"


def default_data_dir() -> Path:
    return Path(__file__).parent / "data"


def resolve_data_dir(explicit: str | os.PathLike | None = None) -> Path:
    """The explicit path, or the bundled directory when none is given."""
    return default_data_dir() if explicit is None else Path(explicit)


def _read_json(path: Path) -> dict:
    if not path.is_file():
        raise DataError(f"data file not found: {path}")
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:  # ValueError: bad JSON, UTF-8 or int
        raise DataError(f"cannot read {path}: {exc}") from exc
    if not isinstance(payload, dict):
        raise DataError(f"{path}: expected a JSON object, got {type(payload).__name__}")
    return payload


def _integer(value) -> int:
    """A JSON integer as it parses: an int, not a float, a string or a bool."""
    if type(value) is not int:
        raise TypeError(f"expected an integer, got {value!r}")
    return value


def _finite(value) -> float:
    number = float(value)
    if not math.isfinite(number):
        raise ValueError(f"{number} is not finite")
    return number


def _require(record: dict, key: str, path: Path, kind=None):
    """record[key], converted by `kind` when given.  A record that is not an
    object, a missing key or a value `kind` rejects is a DataError."""
    if not isinstance(record, dict):
        raise DataError(f"{path}: expected an object, got {record!r}")
    if key not in record:
        raise DataError(f"{path}: record is missing key {key!r}: {record}")
    if kind is None:
        return record[key]
    try:
        return kind(record[key])
    except (TypeError, ValueError, OverflowError) as exc:
        raise DataError(f"{path}: bad value for key {key!r} in {record}: {exc}") from None


def _insert(table: dict, key, value, path: Path, label: str) -> None:
    """table[key] = value, or a DataError if a record for `key` came before."""
    if key in table:
        raise DataError(f"{path}: repeated record for {label}")
    table[key] = value


@contextmanager
def _checked(path: Path, record):
    """Turn a constructor's ValueError/TypeError on `record` into a DataError."""
    try:
        yield
    except (TypeError, ValueError) as exc:
        raise DataError(f"{path}: invalid record {record}: {exc}") from None


def _transition(lower: RoVibLevel, upper: RoVibLevel) -> str:
    return f"({lower.v},{lower.L})->({upper.v},{upper.L})"


def _read_l(record: dict, path: Path) -> int:
    """record["L"] of a center-frequency record, an integer in 0..L_MAX as a
    level's L is; a ValueError outside it, for the caller's `_checked`."""
    L = _require(record, "L", path, _integer)
    if L < 0:
        raise ValueError(f"L={L} is negative")
    if L > L_MAX:
        raise ValueError(f"L={L} exceeds L_MAX={L_MAX}")
    return L


def _read_level(record: dict, path: Path, v_key: str = "v", l_key: str = "L") -> RoVibLevel:
    """The level record[v_key], record[l_key]; `RoVibLevel` checks it."""
    with _checked(path, record):
        return RoVibLevel(_require(record, v_key, path), _require(record, l_key, path))


class CoefficientRecord(NamedTuple):
    """One fitted coefficient set with its provenance and fit residual."""

    level: RoVibLevel
    coefficients: HyperfineCoefficients
    fit_residual_mhz: float
    provenance: str


def load_coefficients(data_dir: str | os.PathLike | None = None) -> dict[RoVibLevel, CoefficientRecord]:
    path = resolve_data_dir(data_dir) / COEFFICIENTS_FILE
    payload = _read_json(path)
    if payload.get("units") != "MHz":
        raise DataError(f"{path}: expected units 'MHz', got {payload.get('units')!r}")
    table: dict[RoVibLevel, CoefficientRecord] = {}
    for record in _require(payload, "coefficients", path, list):
        with _checked(path, record):
            level = _read_level(record, path)
            coeffs = HyperfineCoefficients(
                b_f=_require(record, "b_F", path, _finite),
                c_e=_require(record, "c_e", path, _finite),
                c_i=_require(record, "c_I", path, _finite),
                d1=_require(record, "d_1", path, _finite),
                d2=_require(record, "d_2", path, _finite),
            )
        entry = CoefficientRecord(
            level=level,
            coefficients=coeffs,
            fit_residual_mhz=_require(record, "fit_residual_MHz", path, _finite),
            provenance=str(record.get("provenance", "")),
        )
        _insert(table, level, entry, path, f"(v={level.v}, L={level.L})")
    if not table:
        raise DataError(f"{path}: no coefficient records")
    return table


def load_orbital_elements(
    data_dir: str | os.PathLike | None = None,
) -> dict[tuple[RoVibLevel, RoVibLevel], OrbitalReducedElements]:
    path = resolve_data_dir(data_dir) / ORBITAL_FILE
    payload = _read_json(path)
    table: dict[tuple[RoVibLevel, RoVibLevel], OrbitalReducedElements] = {}
    for record in _require(payload, "elements", path, list):
        with _checked(path, record):
            lower = _read_level(record, path)
            upper = _read_level(record, path, "v_prime", "L_prime")
            elements = OrbitalReducedElements(
                lower=lower,
                upper=upper,
                q0=_require(record, "Q0", path, _finite),
                q2=_require(record, "Q2", path, _finite),
            )
        _insert(table, (lower, upper), elements, path, _transition(lower, upper))
    if not table:
        raise DataError(f"{path}: no orbital element records")
    return table


def load_center_frequencies(data_dir: str | os.PathLike | None = None) -> dict[int, dict]:
    """Per-photon center frequencies of the fundamental band, keyed by L."""
    path = resolve_data_dir(data_dir) / CENTERS_FILE
    payload = _read_json(path)
    table = {}
    for record in _require(payload, "centers", path, list):
        with _checked(path, record):
            L = _read_l(record, path)
        center = {
            "nu_2ph_MHz": _require(record, "nu_2ph_MHz", path, _finite),
            "lambda_um": _require(record, "lambda_um", path, _finite),
        }
        _insert(table, L, center, path, f"L={L}")
    if not table:
        raise DataError(f"{path}: no center frequency records")
    return table


def solve_level(
    v: int, L: int, coefficients: dict[RoVibLevel, CoefficientRecord]
) -> HyperfineSolution:
    """Diagonalize the level (v, L) with its coefficients from `load_coefficients`."""
    level = RoVibLevel(v, L)
    try:
        record = coefficients[level]
    except KeyError:
        available = ", ".join(f"({lv.v},{lv.L})" for lv in sorted(coefficients))
        raise DataError(
            f"no hyperfine coefficients for (v={v}, L={L}); available: {available}"
        ) from None
    if L % 2 == 0:
        return diagonalize_even(L, record.coefficients.c_e, v=v)
    return diagonalize_odd(L, record.coefficients, v=v)


# --- published reference data (validation fixtures) ---


def _reference_path(data_dir, name: str) -> Path:
    return resolve_data_dir(data_dir) / "reference" / name


def load_reference_levels_even(data_dir=None) -> list[dict]:
    """Published even-L shifts: one {v, L, shift_upper_J_MHz[,
    shift_lower_J_MHz]} record per level, values checked and converted."""
    path = _reference_path(data_dir, "levels_even.json")
    levels = []
    for entry in _require(_read_json(path), "levels", path, list):
        level = _read_level(entry, path)
        row = {
            "v": level.v,
            "L": level.L,
            "shift_upper_J_MHz": _require(entry, "shift_upper_J_MHz", path, _finite),
        }
        if "shift_lower_J_MHz" in entry:
            row["shift_lower_J_MHz"] = _require(entry, "shift_lower_J_MHz", path, _finite)
        levels.append(row)
    return levels


def _intensities(value) -> dict[str, float]:
    """A {polarization token: finite intensity} object."""
    if not isinstance(value, dict):
        raise TypeError(f"expected an object, got {value!r}")
    return {token: _finite(number) for token, number in value.items()}


def load_reference_levels_odd(data_dir=None) -> list[HyperfineSolution]:
    path = _reference_path(data_dir, "levels_odd.json")
    payload = _read_json(path)
    solutions = []
    for entry in _require(payload, "levels", path, list):
        level = _read_level(entry, path)
        states = tuple(
            HyperfineEigenstate(
                level=level,
                f_tilde=_require(row, "F_tilde", path, HalfInt.parse),
                j=_require(row, "J", path, HalfInt.parse),
                shift_mhz=_require(row, "shift_MHz", path, _finite),
                c1=_require(row, "C1", path, _finite),
                c3=_require(row, "C3", path, _finite),
            )
            for row in _require(entry, "states", path, list)
        )
        solutions.append(HyperfineSolution(level, states))
    return solutions


_LINE_LABELS = ("F_lower", "J_lower", "F_upper", "J_upper")


def load_reference_lines(data_dir=None) -> list[dict]:
    """Published line lists: one {v_lower, L_lower, v_upper, L_upper, lines}
    record per transition, each line {F_lower, J_lower, F_upper, J_upper,
    delta_f_MHz, intensity: {token: value}}, values checked and converted."""
    path = _reference_path(data_dir, "two_photon_lines.json")
    transitions = []
    for entry in _require(_read_json(path), "transitions", path, list):
        lower = _read_level(entry, path, "v_lower", "L_lower")
        upper = _read_level(entry, path, "v_upper", "L_upper")
        lines = []
        for row in _require(entry, "lines", path, list):
            line = {key: _require(row, key, path, _label) for key in _LINE_LABELS}
            line["delta_f_MHz"] = _require(row, "delta_f_MHz", path, _finite)
            line["intensity"] = _require(row, "intensity", path, _intensities)
            lines.append(line)
        transitions.append(
            {"v_lower": lower.v, "L_lower": lower.L, "v_upper": upper.v, "L_upper": upper.L,
             "lines": lines}
        )
    return transitions


class DataSet:
    """The data files of one directory, resolved once into `path` and each
    read and converted on first use, so a process reads every file it needs
    exactly once.  Also the lookups the command line and the validation
    checks share: a level's solution, a transition's orbital elements, line
    list and center frequency."""

    def __init__(self, data_dir: str | os.PathLike | None = None):
        self.path = resolve_data_dir(data_dir)
        self._solutions: dict[RoVibLevel, HyperfineSolution] = {}

    @cached_property
    def coefficients(self) -> dict[RoVibLevel, CoefficientRecord]:
        return load_coefficients(self.path)

    @cached_property
    def orbital(self) -> dict[tuple[RoVibLevel, RoVibLevel], OrbitalReducedElements]:
        return load_orbital_elements(self.path)

    @cached_property
    def centers(self) -> dict[int, dict]:
        return load_center_frequencies(self.path)

    @cached_property
    def levels_even(self) -> list[dict]:
        return load_reference_levels_even(self.path)

    @cached_property
    def levels_odd(self) -> list[HyperfineSolution]:
        return load_reference_levels_odd(self.path)

    @cached_property
    def lines(self) -> list[dict]:
        return load_reference_lines(self.path)

    def solve(self, level: RoVibLevel) -> HyperfineSolution:
        """The level's hyperfine solution, computed once per level.
        Coefficients that put a shift or a mixing amplitude out of
        floating-point range are a DataError."""
        if level in self._solutions:
            return self._solutions[level]
        solution = solve_level(level.v, level.L, self.coefficients)
        if not all(math.isfinite(x) for s in solution.states for x in (s.shift_mhz, s.c1, s.c3)):
            raise DataError(
                f"{self.path / COEFFICIENTS_FILE}: the coefficients of (v={level.v}, "
                f"L={level.L}) put a shift or mixing out of floating-point range"
            )
        self._solutions[level] = solution
        return solution

    def spectrum(
        self,
        lower: RoVibLevel,
        upper: RoVibLevel,
        pols: Sequence[PolarizationPair],
        center_frequency_mhz: float | None = None,
    ) -> SpectrumResult:
        """`two_photon_spectrum` of lower -> upper, with the provenance of both
        levels' coefficients.  Data that put a line's shift or intensity out
        of floating-point range are a DataError."""
        orb = self.elements(lower, upper)
        lower_sol, upper_sol = self.solve(lower), self.solve(upper)
        transition = _transition(lower, upper)
        intensity_error = DataError(
            f"{self.path / ORBITAL_FILE}: the elements of {transition} put a line "
            "intensity out of floating-point range"
        )
        provenance = {
            "coefficients_lower": self.coefficients[lower].provenance,
            "coefficients_upper": self.coefficients[upper].provenance,
        }
        try:
            result = two_photon_spectrum(
                lower_sol, upper_sol, orb, pols, center_frequency_mhz, provenance
            )
        except OverflowError:  # a squared reduced element left the float range
            raise intensity_error from None
        for line in result.lines:
            if not math.isfinite(line.delta_f_mhz):
                raise DataError(
                    f"{self.path / COEFFICIENTS_FILE}: the coefficients of {transition} "
                    "put a line shift out of floating-point range"
                )
            if not all(map(math.isfinite, line.intensity.values())):
                raise intensity_error
        return result

    def elements(self, lower: RoVibLevel, upper: RoVibLevel) -> OrbitalReducedElements:
        try:
            return self.orbital[(lower, upper)]
        except KeyError:
            available = ", ".join(_transition(a, b) for a, b in sorted(self.orbital))
            raise DataError(
                f"no orbital elements for {_transition(lower, upper)}; available: {available}"
            ) from None

    def center(self, lower: RoVibLevel, upper: RoVibLevel) -> float | None:
        """Per-photon center frequency (MHz) of a fundamental-band transition
        (0, L) -> (1, L), or None for any other transition or a missing L."""
        if (lower.v, upper.v) != (0, 1) or lower.L != upper.L:
            return None
        return self.centers.get(lower.L, {}).get("nu_2ph_MHz")

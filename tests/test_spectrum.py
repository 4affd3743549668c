"""Line-list assembly, published-value regression, profiles and exports."""

import csv
import io
import json
import math
import sys

import numpy as np
import pytest

from h2plus.datafiles import solve_level
from h2plus.hyperfine import RoVibLevel
from h2plus.spectrum import (
    FrequencyGrid,
    convolve_profile,
    line_position_shift,
    spectrum_to_csv,
    spectrum_to_json,
    two_photon_spectrum,
)
from h2plus.validate import intensity_within_tolerance
from common import PI_PI, SP_SM, SP_SP, STANDARD


@pytest.fixture(scope="module")
def spectra(coefficients, orbital_elements):
    results = {}
    for L in range(4):
        lower, upper = RoVibLevel(0, L), RoVibLevel(1, L)
        results[L] = two_photon_spectrum(
            solve_level(0, L, coefficients=coefficients),
            solve_level(1, L, coefficients=coefficients),
            orbital_elements[(lower, upper)],
            STANDARD,
        )
    return results


class TestLinePositionShift:
    def test_half_energy_difference(self, solved_levels):
        lower = solved_levels[(0, 2)].states
        upper = solved_levels[(1, 2)].states
        j52_lower = next(s for s in lower if s.j.twice == 5)
        j32_upper = next(s for s in upper if s.j.twice == 3)
        assert line_position_shift(j52_lower, j32_upper) == pytest.approx(
            -50.7600, abs=1e-4
        )

    def test_l1_diagonal_line(self, solved_levels):
        lower = solved_levels[(0, 1)]
        upper = solved_levels[(1, 1)]
        from h2plus.angular import HalfInt
        from h2plus.hyperfine import F_THREE_HALF

        shift = line_position_shift(
            lower.state(F_THREE_HALF, HalfInt(1)), upper.state(F_THREE_HALF, HalfInt(1))
        )
        assert shift == pytest.approx(-3.702, abs=1e-3)

    def test_identical_shifts_cancel(self, solved_levels):
        state = solved_levels[(0, 1)].states[0]
        assert line_position_shift(state, state) == 0.0


class TestSpectrumAssembly:
    @pytest.mark.parametrize("L,total,bright", [(0, 1, 1), (1, 25, 25), (2, 4, 4), (3, 36, 34)])
    def test_line_counts(self, spectra, L, total, bright):
        result = spectra[L]
        assert len(result.lines) == total
        assert sum(1 for line in result.lines if any(line.intensity.values())) == bright

    def test_sorted_by_shift(self, spectra):
        for result in spectra.values():
            shifts = [line.delta_f_mhz for line in result.lines]
            assert shifts == sorted(shifts)

    def test_most_intense_line_is_diagonal(self, spectra):
        for result in spectra.values():
            for pol in (PI_PI, SP_SM):
                best = max(result.lines, key=lambda ln: ln.intensity[pol])
                assert best.lower_f == best.upper_f
                assert best.lower_j == best.upper_j

    def test_dark_lines_are_delta_j_3(self, spectra):
        dark = [line for line in spectra[3].lines if not any(line.intensity.values())]
        assert len(dark) == 2
        for line in dark:
            assert abs(line.upper_j.twice - line.lower_j.twice) == 6

    def test_polarization_order_irrelevant(self, coefficients, orbital_elements, spectra):
        reordered = two_photon_spectrum(
            solve_level(0, 1, coefficients=coefficients),
            solve_level(1, 1, coefficients=coefficients),
            orbital_elements[(RoVibLevel(0, 1), RoVibLevel(1, 1))],
            (SP_SM, PI_PI, SP_SP),
        )
        baseline = spectra[1]
        for a, b in zip(baseline.lines, reordered.lines):
            assert a.delta_f_mhz == b.delta_f_mhz
            for pol in STANDARD:
                assert a.intensity[pol] == b.intensity[pol]

    def test_same_level_rejected(self, coefficients, orbital_elements):
        solution = solve_level(0, 1, coefficients=coefficients)
        orb = orbital_elements[(RoVibLevel(0, 1), RoVibLevel(1, 1))]
        with pytest.raises(ValueError):
            two_photon_spectrum(solution, solution, orb, STANDARD)


class TestPublishedRegression:
    def test_all_lines_reproduced(self, spectra, reference_lines):
        checked = 0
        for transition in reference_lines:
            result = spectra[transition["L_lower"]]
            computed = {
                (str(ln.lower_f), str(ln.lower_j), str(ln.upper_f), str(ln.upper_j)): ln
                for ln in result.lines
            }
            for row in transition["lines"]:
                key = (row["F_lower"], row["J_lower"], row["F_upper"], row["J_upper"])
                line = computed[key]
                assert line.delta_f_mhz == pytest.approx(
                    row["delta_f_MHz"], abs=1e-3
                ), key
                for pol in STANDARD:
                    expected = row["intensity"][pol.token]
                    assert intensity_within_tolerance(
                        expected, line.intensity[pol]
                    ), (transition["L_lower"], key, pol.token, expected, line.intensity[pol])
                checked += 1
        assert checked == 1 + 4 + 25 + 36

    def test_spot_anchors(self, spectra):
        # L=2 lowest line and the L=0 singlet
        first = spectra[2].lines[0]
        assert first.delta_f_mhz == pytest.approx(-50.7600, abs=1e-4)
        assert first.intensity[PI_PI] == pytest.approx(0.0039, abs=5e-4)
        only = spectra[0].lines[0]
        assert only.delta_f_mhz == 0.0
        assert only.intensity[PI_PI] == pytest.approx(0.1754, abs=5e-4)
        assert only.intensity[SP_SP] == 0.0


class TestConvolveProfile:
    GAMMA = 2 * math.pi * 2600.0  # rad/s -> FWHM ~ 2.6e-3 MHz

    def test_peak_height_equals_amplitude(self, spectra):
        lines = [spectra[0].lines[0]]
        grid = FrequencyGrid(-1.0, 1.0, 0.001)
        freqs, samples = convolve_profile(lines, PI_PI, self.GAMMA, grid)
        center_idx = int(np.argmin(np.abs(freqs)))
        assert samples[center_idx] == pytest.approx(lines[0].intensity[PI_PI], rel=1e-6)
        assert np.all(samples >= 0.0)

    def test_mirror_symmetry(self, spectra):
        line = spectra[0].lines[0]
        shifted = [
            type(line)(line.lower_f, line.lower_j, line.upper_f, line.upper_j,
                       -0.5, dict(line.intensity)),
            type(line)(line.lower_f, line.lower_j, line.upper_f, line.upper_j,
                       0.5, dict(line.intensity)),
        ]
        grid = FrequencyGrid(-2.0, 2.0, 0.01)
        freqs, samples = convolve_profile(shifted, PI_PI, self.GAMMA, grid)
        assert np.allclose(samples, samples[::-1], rtol=1e-12)

    def test_integral_matches_lorentzian_area(self, spectra):
        # independent quadrature oracle: total area = sum(amp * pi/2 * FWHM)
        lines = spectra[2].lines
        fwhm_mhz = self.GAMMA / (2 * math.pi) / 1e6
        grid = FrequencyGrid(-80.0, 80.0, 0.0005)
        freqs, samples = convolve_profile(lines, PI_PI, self.GAMMA, grid)
        integral = np.trapezoid(samples, freqs)
        expected = sum(ln.intensity[PI_PI] for ln in lines) * math.pi / 2 * fwhm_mhz
        assert integral == pytest.approx(expected, rel=0.01)

    def test_invalid_inputs(self, spectra):
        lines = spectra[0].lines
        with pytest.raises(ValueError):
            convolve_profile(lines, PI_PI, 0.0, FrequencyGrid(-1, 1, 0.1))
        with pytest.raises(ValueError):
            FrequencyGrid(-1.0, 1.0, -0.1)
        with pytest.raises(ValueError):
            FrequencyGrid(1.0, -1.0, 0.1)

    def test_missing_numpy_names_the_extra(self, spectra, monkeypatch):
        # a None entry makes `import numpy` raise ImportError
        monkeypatch.setitem(sys.modules, "numpy", None)
        grid = FrequencyGrid(-1.0, 1.0, 0.1)
        with pytest.raises(ImportError, match=r"h2plus\[profile\]"):
            grid.frequencies()
        with pytest.raises(ImportError, match=r"h2plus\[profile\]"):
            convolve_profile(spectra[0].lines, PI_PI, self.GAMMA, grid)


class TestExports:
    def test_csv_header_and_rows(self, spectra):
        text = spectrum_to_csv(spectra[2])
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0] == [
            "L", "v", "F_lower", "J_lower", "F_upper", "J_upper", "delta_f_MHz",
            "intensity_pipi", "intensity_spsp", "intensity_spsm",
        ]
        assert len(rows) == 1 + 4
        assert rows[1][6] == "-50.7600"

    def test_csv_deterministic(self, spectra):
        assert spectrum_to_csv(spectra[1]) == spectrum_to_csv(spectra[1])

    def test_csv_absolute_column(self, coefficients, orbital_elements):
        result = two_photon_spectrum(
            solve_level(0, 2, coefficients=coefficients),
            solve_level(1, 2, coefficients=coefficients),
            orbital_elements[(RoVibLevel(0, 2), RoVibLevel(1, 2))],
            STANDARD,
            center_frequency_mhz=32706607.796,
        )
        text = spectrum_to_csv(result, absolute=True)
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0][-1] == "absolute_f_MHz"
        assert rows[1][-1] == "32706557.0360"

    def test_csv_absolute_requires_center(self, spectra):
        with pytest.raises(ValueError):
            spectrum_to_csv(spectra[2], absolute=True)

    def test_json_round_trip(self, spectra):
        payload = json.loads(spectrum_to_json(spectra[3]))
        assert payload["lower"] == {"v": 0, "L": 3}
        assert payload["upper"] == {"v": 1, "L": 3}
        assert len(payload["lines"]) == 36
        dark = [row for row in payload["lines"] if row["dark"]]
        assert len(dark) == 2

    def test_dict_mirrors_lines(self, spectra):
        payload = json.loads(spectrum_to_json(spectra[0]))
        (row,) = payload["lines"]
        assert row["delta_f_MHz"] == 0.0
        assert row["intensity"]["spsp"] == 0.0

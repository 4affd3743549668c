"""Acceptance suite: the exit criteria of the build, one test per criterion.

Each test prints a single PASS/FAIL line with its measured deviation and,
where a runtime budget applies, its wall-clock time.  Run with `pytest -s`
to see the lines for passing tests.
"""

import math
import time

import numpy as np
import pytest

from h2plus.angular import HalfInt, wigner6j
from h2plus.datafiles import solve_level
from h2plus.hyperfine import (
    F_THREE_HALF,
    diagonalize_even,
    diagonalize_odd,
    fit_coefficients,
    fit_even_coefficient,
)
from h2plus.experiment import (
    CavityParams,
    LaserParams,
    beam_axis_intensity,
    cavity_isolation_db,
    cavity_transmission,
    rate_at_resonance,
    transverse_field_decomposition,
)
from h2plus.hyperfine import RoVibLevel
from h2plus.spectrum import two_photon_spectrum
from h2plus.twophoton import (
    PolarizationPair,
    averaged_sq_matrix_element,
    tensor_coefficients,
)
from h2plus.validate import intensity_within_tolerance
from matrix_oracle import allowed_spin_states, build_hfs_matrix
from spin_oracle import projections
from sublevel_oracle import polarized_matrix_element, wigner3j

PI_PI = PolarizationPair.from_token("pipi")
SP_SP = PolarizationPair.from_token("spsp")
SP_SM = PolarizationPair.from_token("spsm")
STANDARD = (PI_PI, SP_SP, SP_SM)


def report(number: int, name: str, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number} ({name}): {status} [{detail}]")
    assert passed, f"criterion {number} ({name}): {detail}"


def test_criterion_1_even_level_shifts(reference_levels_even):
    start = time.perf_counter()
    worst = 0.0
    for entry in reference_levels_even:
        L, v = entry["L"], entry["v"]
        fit = fit_even_coefficient(
            L, entry["shift_upper_J_MHz"], entry.get("shift_lower_J_MHz")
        )
        solution = diagonalize_even(L, fit.coefficients.c_e, v=v)
        expected = {2 * L + 1: entry["shift_upper_J_MHz"]}
        if "shift_lower_J_MHz" in entry:
            expected[2 * L - 1] = entry["shift_lower_J_MHz"]
        for state in solution.states:
            worst = max(worst, abs(state.shift_mhz - expected[state.j.twice]))
    elapsed = time.perf_counter() - start
    report(
        1,
        "even-level shifts",
        worst <= 1e-4 and elapsed < 1.0,
        f"max deviation {worst:.2e} MHz <= 1e-4, {elapsed * 1e3:.1f} ms",
    )


def test_criterion_2_odd_level_structure(reference_levels_odd):
    start = time.perf_counter()
    worst_shift = 0.0
    worst_mixing = 0.0
    worst_residual = 0.0
    for observed in reference_levels_odd:
        fit = fit_coefficients(observed.level.L, observed)
        worst_residual = max(worst_residual, fit.max_shift_residual_mhz)
        predicted = diagonalize_odd(
            observed.level.L, fit.coefficients, v=observed.level.v
        )
        for ref, got in zip(observed.states, predicted.states):
            assert (ref.f_tilde, ref.j) == (got.f_tilde, got.j)
            worst_shift = max(worst_shift, abs(got.shift_mhz - ref.shift_mhz))
            worst_mixing = max(
                worst_mixing, abs(got.c1 - ref.c1), abs(got.c3 - ref.c3)
            )
    elapsed = time.perf_counter() - start
    passed = (
        worst_residual < 1e-3
        and worst_shift <= 1e-4
        and worst_mixing <= 1e-5
        and elapsed < 1.0
    )
    report(
        2,
        "odd-level shifts and mixings",
        passed,
        f"fit residual {worst_residual:.2e} < 1e-3 MHz, shifts {worst_shift:.2e} <= 1e-4 MHz, "
        f"mixings {worst_mixing:.2e} <= 1e-5, {elapsed * 1e3:.0f} ms",
    )


def test_criterion_3_tensor_coefficients():
    expected = {
        ("smsm"): (-2, 1.0, 0.0),
        ("smpi"): (-1, math.sqrt(2) / 2, 0.0),
        ("smsp"): (0, math.sqrt(6) / 6, math.sqrt(3) / 3),
        ("pism"): (-1, math.sqrt(2) / 2, 0.0),
        ("pipi"): (0, math.sqrt(2 / 3), -math.sqrt(3) / 3),
        ("pisp"): (1, math.sqrt(2) / 2, 0.0),
        ("spsm"): (0, math.sqrt(6) / 6, math.sqrt(3) / 3),
        ("sppi"): (1, math.sqrt(2) / 2, 0.0),
        ("spsp"): (2, 1.0, 0.0),
    }
    worst = 0.0
    for token, (q, a2_exp, a00_exp) in expected.items():
        coeffs = tensor_coefficients(PolarizationPair.from_token(token))
        worst = max(
            worst,
            abs(coeffs.a2_at(q) - a2_exp),
            abs(coeffs.a00 - a00_exp),
            max(abs(coeffs.a2_at(qq)) for qq in range(-2, 3) if qq != q),
        )
    report(
        3,
        "polarization tensor table",
        worst <= 1e-14,
        f"max deviation {worst:.2e} <= 1e-14 over all 9 pairs",
    )


@pytest.fixture(scope="module")
def computed_spectra(coefficients, orbital_elements):
    spectra = {}
    for L in range(4):
        spectra[L] = two_photon_spectrum(
            solve_level(0, L, coefficients=coefficients),
            solve_level(1, L, coefficients=coefficients),
            orbital_elements[(RoVibLevel(0, L), RoVibLevel(1, L))],
            STANDARD,
        )
    return spectra


def test_criterion_4_line_lists(computed_spectra, reference_lines):
    start = time.perf_counter()
    worst_shift = 0.0
    worst_strong = 0.0
    worst_satellite_rel = 0.0
    failures = []
    for transition in reference_lines:
        result = computed_spectra[transition["L_lower"]]
        computed = {
            (str(ln.lower_f), str(ln.lower_j), str(ln.upper_f), str(ln.upper_j)): ln
            for ln in result.lines
        }
        for row in transition["lines"]:
            key = (row["F_lower"], row["J_lower"], row["F_upper"], row["J_upper"])
            line = computed[key]
            worst_shift = max(worst_shift, abs(line.delta_f_mhz - row["delta_f_MHz"]))
            for pol in STANDARD:
                expected = row["intensity"][pol.token]
                actual = line.intensity[pol]
                if not intensity_within_tolerance(expected, actual):
                    failures.append((transition["L_lower"], key, pol.token))
                if expected > 1e-4:
                    worst_strong = max(worst_strong, abs(actual - expected))
                elif expected > 0.0:
                    worst_satellite_rel = max(
                        worst_satellite_rel, abs(actual - expected) / expected
                    )
    # spot anchors
    anchors_ok = (
        computed_spectra[0].lines[0].intensity[PI_PI] == pytest.approx(0.1754, abs=5e-4)
        and computed_spectra[2].lines[0].delta_f_mhz == pytest.approx(-50.7600, abs=1e-3)
        and computed_spectra[2].lines[0].intensity[PI_PI] == pytest.approx(0.0039, abs=5e-4)
        and any(
            line.delta_f_mhz == pytest.approx(-3.702, abs=1e-3)
            and line.intensity[PI_PI] == pytest.approx(1.767e-01, abs=5e-4)
            for line in computed_spectra[1].lines
        )
        and all(
            line.intensity[pol] == 0.0
            for line in computed_spectra[3].lines
            if abs(line.upper_j.twice - line.lower_j.twice) == 6
            for pol in STANDARD
        )
    )
    elapsed = time.perf_counter() - start
    passed = (
        not failures and worst_shift <= 1e-3 and anchors_ok and elapsed < 1.0
    )
    report(
        4,
        "published line lists",
        passed,
        f"shifts {worst_shift:.2e} <= 1e-3 MHz, strong lines {worst_strong:.2e} <= 5e-4, "
        f"satellites {worst_satellite_rel * 100:.3f}% <= 1%, "
        f"{len(failures)} tolerance failures, {elapsed * 1e3:.0f} ms",
    )


def test_criterion_5_brute_force_equivalence(
    coefficients, orbital_elements, reference_lines
):
    solutions = {
        (v, L): solve_level(v, L, coefficients=coefficients)
        for v in (0, 1)
        for L in range(4)
    }
    worst_rel = 0.0
    lines_checked = 0
    for transition in reference_lines:
        L = transition["L_lower"]
        lower = solutions[(0, L)]
        upper = solutions[(1, L)]
        orb = orbital_elements[(RoVibLevel(0, L), RoVibLevel(1, L))]
        for row in transition["lines"]:
            g = lower.state(HalfInt.parse(row["F_lower"]), HalfInt.parse(row["J_lower"]))
            e = upper.state(HalfInt.parse(row["F_upper"]), HalfInt.parse(row["J_upper"]))
            for pol in STANDARD:
                closed = averaged_sq_matrix_element(g, e, pol, orb)
                brute = sum(
                    polarized_matrix_element(g, mg, e, me, pol, orb) ** 2
                    for mg in projections(g.j)
                    for me in projections(e.j)
                ) / (g.j.twice + 1)
                if closed == 0.0:
                    assert brute == 0.0
                else:
                    worst_rel = max(worst_rel, abs(brute - closed) / closed)
            lines_checked += 1
    report(
        5,
        "magnetic-sublevel sum oracle",
        worst_rel <= 1e-10 and lines_checked == 66,
        f"max relative deviation {worst_rel:.2e} <= 1e-10 over {lines_checked} lines x 3 pairs",
    )


def test_criterion_6_experimental_estimates():
    gamma_f = 2 * math.pi * 2600.0
    intensity = beam_axis_intensity(LaserParams(10.0, 1e-3, gamma_f))
    circular = rate_at_resonance(intensity, gamma_f, 0.02)
    i_pi = transverse_field_decomposition(intensity)[0]
    linear = rate_at_resonance(i_pi, gamma_f, 0.2)
    cavity = CavityParams(0.98, 0.001)
    transmission = cavity_transmission(cavity)
    isolation = cavity_isolation_db(cavity)
    passed = (
        abs(circular - 0.7) <= 0.07
        and abs(linear - 1.7) <= 0.17
        and abs(transmission - 0.90) <= 0.009
        and abs(isolation - 40.0) <= 0.4
    )
    report(
        6,
        "rates and cavity figures",
        passed,
        f"rates {circular:.3f}/{linear:.3f} 1/s (targets 0.7/1.7 +-10%), "
        f"T_cav {transmission:.4f} (0.90 +-1%), isolation {isolation:.2f} dB (40 +-1%)",
    )


def test_criterion_7_property_suites(coefficients):
    start = time.perf_counter()

    # 3j orthogonality, exhaustive for j1, j2 <= 4
    worst = 0.0
    for tj1 in range(0, 9):
        for tj2 in range(0, 9):
            tj3_values = range(abs(tj1 - tj2), tj1 + tj2 + 1, 2)
            for tj3 in tj3_values:
                for tj3p in tj3_values:
                    for tm3 in range(-min(tj3, tj3p), min(tj3, tj3p) + 1, 2):
                        total = 0.0
                        for tm1 in range(-tj1, tj1 + 1, 2):
                            tm2 = -tm3 - tm1
                            if abs(tm2) > tj2:
                                continue
                            total += (tj3 + 1) * wigner3j(
                                HalfInt(tj1), HalfInt(tj2), HalfInt(tj3),
                                HalfInt(tm1), HalfInt(tm2), HalfInt(tm3),
                            ) * wigner3j(
                                HalfInt(tj1), HalfInt(tj2), HalfInt(tj3p),
                                HalfInt(tm1), HalfInt(tm2), HalfInt(tm3),
                            )
                        expected = 1.0 if tj3 == tj3p else 0.0
                        worst = max(worst, abs(total - expected))
    orthogonality_3j = worst

    # 6j orthogonality, exhaustive for all six arguments <= 4
    worst = 0.0
    for ta in range(0, 9):
        for tb in range(0, 9):
            x_values = range(abs(ta - tb), ta + tb + 1, 2)
            for tc in range(0, 9):
                for td in range(0, 9):
                    if (tc + td) % 2 != (ta + tb) % 2:
                        continue
                    p_values = [
                        tp
                        for tp in range(abs(ta - td), ta + td + 1, 2)
                        if abs(tc - tb) <= tp <= tc + tb
                    ]
                    for i, tp in enumerate(p_values):
                        for tq in p_values[i:]:
                            total = sum(
                                (tx + 1)
                                * wigner6j(HalfInt(ta), HalfInt(tb), HalfInt(tx),
                                           HalfInt(tc), HalfInt(td), HalfInt(tp))
                                * wigner6j(HalfInt(ta), HalfInt(tb), HalfInt(tx),
                                           HalfInt(tc), HalfInt(td), HalfInt(tq))
                                for tx in x_values
                                if abs(tc - td) <= tx <= tc + td
                            )
                            expected = 1.0 / (tp + 1) if tp == tq else 0.0
                            worst = max(worst, abs(total - expected))
    orthogonality_6j = worst

    # tensor normalization for all 9 pairs
    norm_dev = 0.0
    for q1 in (-1, 0, 1):
        for q2 in (-1, 0, 1):
            pair = PolarizationPair(q1, q2)
            expected = 1.0 if q1 == q2 else 0.5
            coeffs = tensor_coefficients(pair)
            norm_sq = sum(a * a for a in coeffs.a2) + coeffs.a00 * coeffs.a00
            norm_dev = max(norm_dev, abs(norm_sq - expected))

    # eigen-residuals and mixing orthonormality for every shipped odd level
    eigen_residual = 0.0
    ortho_dev = 0.0
    for record in coefficients.values():
        L = record.level.L
        if L % 2 == 0:
            continue
        solution = diagonalize_odd(L, record.coefficients, v=record.level.v)
        h = build_hfs_matrix(L, record.coefficients)
        basis = allowed_spin_states(L)
        for state in solution.states:
            vec = np.zeros(len(basis))
            for idx, b in enumerate(basis):
                if b.J == state.j:
                    vec[idx] = state.c3 if b.F == F_THREE_HALF else state.c1
            eigen_residual = max(
                eigen_residual, np.max(np.abs(h @ vec - state.shift_mhz * vec))
            )
        for tj in (2 * L + 1, 2 * L - 1):
            hi, lo = [s for s in solution.states if s.j.twice == tj]
            ortho_dev = max(ortho_dev, abs(hi.c1 * lo.c1 + hi.c3 * lo.c3))
            ortho_dev = max(ortho_dev, abs(hi.c1**2 + hi.c3**2 - 1.0))

    elapsed = time.perf_counter() - start
    passed = (
        orthogonality_3j <= 1e-12
        and orthogonality_6j <= 1e-12
        and norm_dev <= 1e-14
        and eigen_residual < 1e-9
        and ortho_dev < 1e-12
        and elapsed < 10.0
    )
    report(
        7,
        "property suites",
        passed,
        f"3j orthogonality {orthogonality_3j:.1e}, 6j orthogonality {orthogonality_6j:.1e}, "
        f"tensor norms {norm_dev:.1e}, eigen-residual {eigen_residual:.1e} MHz, "
        f"mixing orthonormality {ortho_dev:.1e}, {elapsed:.1f} s < 10 s",
    )

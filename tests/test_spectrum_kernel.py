"""The line-list kernel against the per-pair closed form and the
magnetic-sublevel oracle, on the bundled data and on a seeded synthetic set
that also covers L' = L +/- 2."""

import random

import pytest

from h2plus.angular import projections
from h2plus.hyperfine import (
    HyperfineCoefficients,
    RoVibLevel,
    diagonalize_even,
    diagonalize_odd,
)
from h2plus.spectrum import two_photon_spectrum
from h2plus.twophoton import (
    OrbitalReducedElements,
    PolarizationPair,
    averaged_sq_matrix_element,
    polarized_matrix_element,
)

ALL_POLS = tuple(
    PolarizationPair.from_token(a + b)
    for a in ("sm", "pi", "sp")
    for b in ("sm", "pi", "sp")
)
SYNTHETIC_L_MAX = 7


def _bundled_transitions(solved_levels, orbital_elements):
    return [
        (solved_levels[(lo.v, lo.L)], solved_levels[(up.v, up.L)], orb)
        for (lo, up), orb in sorted(orbital_elements.items())
    ]


def _synthetic_level(rng, v, L):
    if L % 2 == 0:
        return diagonalize_even(L, rng.uniform(30.0, 45.0), v=v)
    coefficients = HyperfineCoefficients(
        b_f=rng.uniform(850.0, 950.0),
        c_e=rng.uniform(30.0, 45.0),
        c_i=rng.uniform(-0.05, -0.03),
        d1=rng.uniform(100.0, 140.0),
        d2=rng.uniform(-0.35, -0.25),
    )
    return diagonalize_odd(L, coefficients, v=v)


def _synthetic_transitions(seed=20081):
    """(0, L) -> (1, L') for L, L' <= 7 and L' - L in {0, +-2}, with random
    level constants and orbital elements."""
    rng = random.Random(seed)
    levels = {
        (v, L): _synthetic_level(rng, v, L)
        for v in (0, 1)
        for L in range(SYNTHETIC_L_MAX + 1)
    }
    transitions = []
    for L in range(SYNTHETIC_L_MAX + 1):
        for Lp in (L - 2, L, L + 2):
            if not 0 <= Lp <= SYNTHETIC_L_MAX:
                continue
            q0 = rng.uniform(0.5, 2.0) if Lp == L else 0.0
            q2 = rng.uniform(0.02, 1.0) if (L, Lp) != (0, 0) else 0.0
            orb = OrbitalReducedElements(RoVibLevel(0, L), RoVibLevel(1, Lp), q0, q2)
            transitions.append((levels[(0, L)], levels[(1, Lp)], orb))
    return transitions


def _sublevel_average(lower, upper, pol, orb):
    """(1/(2J+1)) sum over M, M' of |<gJM|T(q1,q2)|eJ'M'>|^2, with M = M' + q."""
    total = 0.0
    for m_upper in projections(upper.j):
        m_lower = m_upper + pol.q_total
        if abs(m_lower.twice) <= lower.j.twice:
            total += polarized_matrix_element(lower, m_lower, upper, m_upper, pol, orb) ** 2
    return total / (lower.j.twice + 1)


@pytest.fixture(scope="module")
def synthetic_transitions():
    return _synthetic_transitions()


def test_synthetic_set_covers_every_rank_path(synthetic_transitions):
    shapes = {(orb.upper.L - orb.lower.L, orb.lower.L % 2) for _, _, orb in synthetic_transitions}
    assert shapes == {(d, parity) for d in (-2, 0, 2) for parity in (0, 1)}


@pytest.mark.parametrize("source", ["bundled", "synthetic"])
def test_intensities_match_closed_form_and_sublevel_oracle(
    source, solved_levels, orbital_elements, synthetic_transitions
):
    transitions = (
        _bundled_transitions(solved_levels, orbital_elements)
        if source == "bundled"
        else synthetic_transitions
    )
    bright = 0
    for lower_sol, upper_sol, orb in transitions:
        result = two_photon_spectrum(lower_sol, upper_sol, orb, ALL_POLS)
        assert len(result.lines) == len(lower_sol.states) * len(upper_sol.states)
        for line in result.lines:
            lower = lower_sol.state(line.lower_f, line.lower_j)
            upper = upper_sol.state(line.upper_f, line.upper_j)
            for pol in ALL_POLS:
                intensity = line.intensity[pol]
                assert intensity == averaged_sq_matrix_element(lower, upper, pol, orb)
                oracle = _sublevel_average(lower, upper, pol, orb)
                assert intensity == pytest.approx(oracle, rel=0, abs=1e-12)
                bright += intensity > 1e-6
    assert bright > 0

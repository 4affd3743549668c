import random

import pytest

from h2plus.datafiles import (
    load_center_frequencies,
    load_coefficients,
    load_orbital_elements,
    load_reference_levels_even,
    load_reference_levels_odd,
    load_reference_lines,
    solve_level,
)
from h2plus.hyperfine import (
    HyperfineCoefficients,
    RoVibLevel,
    diagonalize_even,
    diagonalize_odd,
)
from h2plus.twophoton import OrbitalReducedElements

SYNTHETIC_L_MAX = 7


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


@pytest.fixture(scope="session")
def coefficients():
    return load_coefficients()


@pytest.fixture(scope="session")
def orbital_elements():
    return load_orbital_elements()


@pytest.fixture(scope="session")
def center_frequencies():
    return load_center_frequencies()


@pytest.fixture(scope="session")
def reference_levels_even():
    return load_reference_levels_even()


@pytest.fixture(scope="session")
def reference_levels_odd():
    return load_reference_levels_odd()


@pytest.fixture(scope="session")
def reference_lines():
    return load_reference_lines()


@pytest.fixture(scope="session")
def solved_levels(coefficients):
    """Hyperfine solutions for every shipped (v, L), keyed by (v, L)."""
    return {
        (level.v, level.L): solve_level(level.v, level.L, coefficients=coefficients)
        for level in coefficients
    }


@pytest.fixture(scope="session")
def bundled_transitions(solved_levels, orbital_elements):
    """(lower, upper, orbital elements) of every shipped transition."""
    return [
        (solved_levels[(lo.v, lo.L)], solved_levels[(up.v, up.L)], orb)
        for (lo, up), orb in sorted(orbital_elements.items())
    ]


@pytest.fixture(scope="session")
def synthetic_transitions():
    """Seeded synthetic (lower, upper, orbital elements) triples, L <= 7."""
    return _synthetic_transitions()

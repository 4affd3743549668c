"""The line-list kernel against the per-pair closed form and the
magnetic-sublevel oracle, on the bundled data and on a seeded synthetic set
that also covers L' = L +/- 2."""

import pytest

from h2plus.angular import HalfInt
from h2plus.spectrum import two_photon_spectrum
from h2plus.twophoton import PolarizationPair, averaged_sq_matrix_element
from spin_oracle import projections
from sublevel_oracle import polarized_matrix_element

ALL_POLS = tuple(
    PolarizationPair.from_token(a + b)
    for a in ("sm", "pi", "sp")
    for b in ("sm", "pi", "sp")
)


def _sublevel_average(lower, upper, pol, orb):
    """(1/(2J+1)) sum over M, M' of |<gJM|T(q1,q2)|eJ'M'>|^2, with M = M' + q."""
    total = 0.0
    for m_upper in projections(upper.j):
        m_lower = HalfInt(m_upper.twice + 2 * (pol.q1 + pol.q2))
        if abs(m_lower.twice) <= lower.j.twice:
            total += polarized_matrix_element(lower, m_lower, upper, m_upper, pol, orb) ** 2
    return total / (lower.j.twice + 1)


def test_synthetic_set_covers_every_rank_path(synthetic_transitions):
    shapes = {(orb.upper.L - orb.lower.L, orb.lower.L % 2) for _, _, orb in synthetic_transitions}
    assert shapes == {(d, parity) for d in (-2, 0, 2) for parity in (0, 1)}


@pytest.mark.parametrize("source", ["bundled", "synthetic"])
def test_intensities_match_closed_form_and_sublevel_oracle(
    source, bundled_transitions, synthetic_transitions
):
    transitions = bundled_transitions if source == "bundled" else synthetic_transitions
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

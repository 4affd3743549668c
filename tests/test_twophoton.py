"""Two-photon amplitudes: polarization tensors, reduced elements, averages."""

import copy
import math
import pickle

import pytest

from h2plus.angular import HalfInt
from h2plus.hyperfine import (
    F_HALF,
    F_THREE_HALF,
    HyperfineEigenstate,
    RoVibLevel,
    diagonalize_even,
    diagonalize_odd,
)
from h2plus.twophoton import (
    OrbitalReducedElements,
    PolarizationPair,
    SelectionRuleError,
    averaged_sq_matrix_element,
    hyperfine_reduced_q,
    polarization_weights,
)
from spin_oracle import minus_one_pow, projections
import sublevel_oracle
from sublevel_oracle import (
    IntermediateSums,
    polarized_matrix_element,
    reduced_from_intermediate_sums,
)

ALL_PAIRS = [PolarizationPair(q1, q2) for q1 in (-1, 0, 1) for q2 in (-1, 0, 1)]
PI_PI = PolarizationPair(0, 0)
SIGMA_PLUS_SIGMA_PLUS = PolarizationPair(1, 1)
SIGMA_PLUS_SIGMA_MINUS = PolarizationPair(1, -1)

ORB_L0 = OrbitalReducedElements(RoVibLevel(0, 0), RoVibLevel(1, 0), 0.7255, 0.0)
ORB_L1 = OrbitalReducedElements(RoVibLevel(0, 1), RoVibLevel(1, 1), 1.261, 0.7753)


def solved(v, L, coefficients):
    if L % 2 == 0:
        return diagonalize_even(L, coefficients.c_e, v=v)
    return diagonalize_odd(L, coefficients, v=v)


@pytest.fixture(scope="module")
def l1_pair(coefficients):
    lower = solved(0, 1, coefficients[RoVibLevel(0, 1)].coefficients)
    upper = solved(1, 1, coefficients[RoVibLevel(1, 1)].coefficients)
    return lower, upper


class TestPolarizationPair:
    def test_tokens_round_trip(self):
        for token in ("pipi", "spsp", "smsm", "spsm", "pisp", "pism"):
            pair = PolarizationPair.from_token(token)
            assert pair.token == token

    def test_token_mapping(self):
        assert PolarizationPair.from_token("pisp") == PolarizationPair(0, 1)
        assert PolarizationPair.from_token("smsm") == PolarizationPair(-1, -1)
        assert PolarizationPair.from_token("SpSm") == PolarizationPair(1, -1)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            PolarizationPair.from_token("xyzw")
        with pytest.raises(ValueError):
            PolarizationPair(2, 0)

    def test_swap(self):
        pair = PolarizationPair.from_token("pisp")
        assert PolarizationPair(pair.q2, pair.q1) is PolarizationPair.from_token("sppi")

    @pytest.mark.parametrize("pair", ALL_PAIRS, ids=str)
    def test_one_instance_per_pair(self, pair):
        assert PolarizationPair(pair.q1, pair.q2) is PolarizationPair.from_token(pair.token)
        assert PolarizationPair.from_token(pair.token.upper()) is pair
        assert PolarizationPair(pair.q2, pair.q1).token == pair.token[2:] + pair.token[:2]

    @pytest.mark.parametrize("pair", ALL_PAIRS, ids=str)
    def test_pickle_and_copy_keep_the_instance(self, pair):
        assert pickle.loads(pickle.dumps(pair)) is pair
        assert copy.copy(pair) is pair
        assert copy.deepcopy(pair) is pair
        assert copy.deepcopy({pair: [pair]}) == {pair: [pair]}

    def test_immutable(self):
        with pytest.raises(AttributeError):
            PI_PI.q1 = 1
        with pytest.raises(AttributeError):
            del PI_PI.token
        assert PI_PI.token == "pipi"

    def test_fresh_construction_finds_dict_key(self):
        assert {PI_PI: "found"}[PolarizationPair(0, 0)] == "found"
        assert hash(PolarizationPair(0, 0)) == hash(PI_PI)
        assert PolarizationPair(0, 1) != PolarizationPair(1, 0)


class TestTensorCoefficients:
    # the nine closed-form entries (a2 at q = q1+q2, a00)
    EXPECTED = {
        ("smsm"): (1.0, 0.0),
        ("smpi"): (math.sqrt(2) / 2, 0.0),
        ("smsp"): (math.sqrt(6) / 6, math.sqrt(3) / 3),
        ("pism"): (math.sqrt(2) / 2, 0.0),
        ("pipi"): (math.sqrt(2 / 3), -math.sqrt(3) / 3),
        ("pisp"): (math.sqrt(2) / 2, 0.0),
        ("spsm"): (math.sqrt(6) / 6, math.sqrt(3) / 3),
        ("sppi"): (math.sqrt(2) / 2, 0.0),
        ("spsp"): (1.0, 0.0),
    }

    @pytest.mark.parametrize("token", sorted(EXPECTED))
    def test_exact_entries(self, token):
        a00, a2 = polarization_weights(PolarizationPair.from_token(token))
        a2_expected, a00_expected = self.EXPECTED[token]
        assert a2 == pytest.approx(a2_expected, abs=1e-14)
        assert a00 == pytest.approx(a00_expected, abs=1e-14)

    @pytest.mark.parametrize("pair", ALL_PAIRS, ids=lambda p: p.token)
    def test_table_equals_oracle_cg(self, pair):
        assert polarization_weights(pair) == sublevel_oracle.polarization_weights(pair)

    @pytest.mark.parametrize("pair", ALL_PAIRS, ids=lambda p: p.token)
    def test_single_rank2_component(self, pair):
        if pair.q1 + pair.q2 != 0:
            assert polarization_weights(pair)[0] == 0.0

    @pytest.mark.parametrize("pair", ALL_PAIRS, ids=lambda p: p.token)
    def test_normalization(self, pair):
        expected = 1.0 if pair.q1 == pair.q2 else 0.5
        a00, a2 = polarization_weights(pair)
        assert a00 * a00 + a2 * a2 == pytest.approx(expected, abs=1e-14)

    def test_scalar_part_absent_for_circular_pairs(self):
        assert polarization_weights(SIGMA_PLUS_SIGMA_PLUS)[0] == 0.0
        assert polarization_weights(PolarizationPair(-1, -1))[0] == 0.0

    @pytest.mark.parametrize("pair", ALL_PAIRS, ids=lambda p: p.token)
    def test_weights_are_computed_once_per_pair(self, pair):
        weights = polarization_weights(pair)
        assert polarization_weights(PolarizationPair(pair.q1, pair.q2)) is weights


class TestReducedFromIntermediateSums:
    def test_zero_sums(self):
        orb = reduced_from_intermediate_sums(
            IntermediateSums(0.0, 0.0, 0.0), RoVibLevel(0, 0), RoVibLevel(1, 0)
        )
        assert orb.q0 == 0.0 and orb.q2 == 0.0

    def test_unit_sums_rank0(self):
        orb = reduced_from_intermediate_sums(
            IntermediateSums(1.0, 1.0, 1.0), RoVibLevel(0, 1), RoVibLevel(1, 1)
        )
        assert orb.q0 / math.sqrt(3) == pytest.approx(-math.sqrt(3), abs=1e-14)

    def test_lowering_branch(self):
        # L=2 -> L'=0 keeps only the a_minus term
        orb = reduced_from_intermediate_sums(
            IntermediateSums(0.7, 0.3, 0.9), RoVibLevel(0, 2), RoVibLevel(1, 0)
        )
        assert orb.q0 == 0.0
        assert orb.q2 / math.sqrt(5) == pytest.approx(-math.sqrt(1 / 3) * 0.7, abs=1e-14)

    def test_raising_branch(self):
        orb = reduced_from_intermediate_sums(
            IntermediateSums(0.7, 0.3, 0.9), RoVibLevel(0, 1), RoVibLevel(1, 3)
        )
        assert orb.q0 == 0.0
        assert orb.q2 / math.sqrt(3) == pytest.approx(-math.sqrt(7 / 5) * 0.9, abs=1e-14)

    def test_rank2_vanishes_between_s_levels(self):
        orb = reduced_from_intermediate_sums(
            IntermediateSums(0.0, 0.4, 0.6), RoVibLevel(0, 0), RoVibLevel(1, 0)
        )
        assert orb.q2 == 0.0

    def test_selection_rule_error(self):
        with pytest.raises(SelectionRuleError):
            reduced_from_intermediate_sums(
                IntermediateSums(1.0, 1.0, 1.0), RoVibLevel(0, 1), RoVibLevel(1, 2)
            )


class TestHyperfineReducedQ:
    def test_s_level_magnitude(self):
        # pure L=0 states: |<g||Q0||e>| = sqrt(2) * Q0 through the single 6j
        lower = diagonalize_even(0, 0.0, v=0).states[0]
        upper = diagonalize_even(0, 0.0, v=1).states[0]
        value = hyperfine_reduced_q(0, lower, upper, ORB_L0)
        assert abs(value) == pytest.approx(math.sqrt(2) * 0.7255, abs=1e-12)

    def test_rank2_blocked_between_half_spins(self, l1_pair):
        lower, upper = l1_pair
        g = lower.state(F_THREE_HALF, HalfInt(1))
        e = upper.state(F_THREE_HALF, HalfInt(1))
        assert hyperfine_reduced_q(2, g, e, ORB_L1) == 0.0

    def test_disjoint_f_sectors_vanish(self):
        level_lo, level_up = RoVibLevel(0, 1), RoVibLevel(1, 1)
        g = HyperfineEigenstate(level_lo, F_HALF, HalfInt(3), 0.0, 1.0, 0.0)
        e = HyperfineEigenstate(level_up, F_THREE_HALF, HalfInt(3), 0.0, 0.0, 1.0)
        assert hyperfine_reduced_q(0, g, e, ORB_L1) == 0.0

    def test_odd_delta_l_unconstructable(self):
        # an odd delta L (which would change the total nuclear spin) is
        # rejected at the data level already
        with pytest.raises(SelectionRuleError):
            OrbitalReducedElements(RoVibLevel(0, 0), RoVibLevel(1, 1), 0.0, 0.5)

    def test_invalid_rank(self):
        g = diagonalize_even(0, 0.0, v=0).states[0]
        e = diagonalize_even(0, 0.0, v=1).states[0]
        with pytest.raises(ValueError):
            hyperfine_reduced_q(1, g, e, ORB_L0)

    def test_level_mismatch_raises(self, l1_pair):
        lower, upper = l1_pair
        with pytest.raises(ValueError):
            hyperfine_reduced_q(0, lower.states[0], upper.states[0], ORB_L0)

    def test_pure_state_reduction(self, l1_pair):
        # one-hot mixing must reproduce the single-channel value
        lower, upper = l1_pair
        g = lower.state(F_THREE_HALF, HalfInt(5))
        e = upper.state(F_THREE_HALF, HalfInt(5))
        assert (g.c1, g.c3) == (0.0, 1.0) and (e.c1, e.c3) == (0.0, 1.0)
        from h2plus.angular import wigner6j

        single = (
            minus_one_pow(e.j, 1, F_THREE_HALF, 0)
            * math.sqrt((g.j.twice + 1) * (e.j.twice + 1))
            * wigner6j(1, 0, 1, e.j, F_THREE_HALF, g.j)
            * ORB_L1.q0
        )
        assert hyperfine_reduced_q(0, g, e, ORB_L1) == pytest.approx(single, abs=1e-14)


class TestAveragedSqMatrixElement:
    def test_s_band_value(self):
        lower = diagonalize_even(0, 0.0, v=0).states[0]
        upper = diagonalize_even(0, 0.0, v=1).states[0]
        assert averaged_sq_matrix_element(lower, upper, PI_PI, ORB_L0) == pytest.approx(
            0.1754, abs=5e-4
        )
        assert averaged_sq_matrix_element(
            lower, upper, SIGMA_PLUS_SIGMA_PLUS, ORB_L0
        ) == 0.0

    def test_l1_diagonal_line(self, l1_pair):
        lower, upper = l1_pair
        g = lower.state(F_THREE_HALF, HalfInt(1))
        e = upper.state(F_THREE_HALF, HalfInt(1))
        assert averaged_sq_matrix_element(g, e, PI_PI, ORB_L1) == pytest.approx(
            0.1767, abs=5e-4
        )
        assert averaged_sq_matrix_element(g, e, SIGMA_PLUS_SIGMA_PLUS, ORB_L1) == 0.0

    def test_delta_j_3_is_zero(self, coefficients):
        lower = solved(0, 3, coefficients[RoVibLevel(0, 3)].coefficients)
        upper = solved(1, 3, coefficients[RoVibLevel(1, 3)].coefficients)
        orb = OrbitalReducedElements(RoVibLevel(0, 3), RoVibLevel(1, 3), 1.962, 0.9903)
        g = lower.state(F_THREE_HALF, HalfInt(9))
        e = upper.state(F_THREE_HALF, HalfInt(3))
        for pair in ALL_PAIRS:
            assert averaged_sq_matrix_element(g, e, pair, orb) == 0.0

    @pytest.mark.parametrize("pair", ALL_PAIRS, ids=lambda p: p.token)
    def test_symmetric_under_swap(self, pair, l1_pair):
        lower, upper = l1_pair
        g = lower.state(F_THREE_HALF, HalfInt(3))
        e = upper.state(F_THREE_HALF, HalfInt(5))
        swapped = PolarizationPair(pair.q2, pair.q1)
        assert averaged_sq_matrix_element(g, e, pair, ORB_L1) == pytest.approx(
            averaged_sq_matrix_element(g, e, swapped, ORB_L1), rel=1e-14
        )

    def test_non_negative(self, l1_pair):
        lower, upper = l1_pair
        for g in lower.states:
            for e in upper.states:
                for pair in ALL_PAIRS:
                    assert averaged_sq_matrix_element(g, e, pair, ORB_L1) >= 0.0


class TestPolarizedMatrixElement:
    def test_projection_selection(self, l1_pair):
        lower, upper = l1_pair
        g = lower.state(F_THREE_HALF, HalfInt(5))
        e = upper.state(F_THREE_HALF, HalfInt(5))
        half = HalfInt(1)
        # pi-pi requires M = M'
        assert polarized_matrix_element(g, half, e, HalfInt(3), PI_PI, ORB_L1) == 0.0
        assert polarized_matrix_element(g, half, e, half, PI_PI, ORB_L1) != 0.0
        # sigma+sigma+ requires M = M' + 2
        assert polarized_matrix_element(
            g, HalfInt(5), e, HalfInt(1), SIGMA_PLUS_SIGMA_PLUS, ORB_L1
        ) != 0.0

    def test_projection_bounds_raise(self, l1_pair):
        lower, upper = l1_pair
        g = lower.state(F_THREE_HALF, HalfInt(1))
        e = upper.state(F_THREE_HALF, HalfInt(1))
        with pytest.raises(ValueError):
            polarized_matrix_element(g, HalfInt(3), e, HalfInt(1), PI_PI, ORB_L1)

    def test_brute_force_average(self, l1_pair):
        # the M-resolved double sum reproduces the closed-form average
        lower, upper = l1_pair
        for g in lower.states:
            for e in upper.states:
                for pair in (PI_PI, SIGMA_PLUS_SIGMA_PLUS, SIGMA_PLUS_SIGMA_MINUS):
                    brute = sum(
                        polarized_matrix_element(g, mg, e, me, pair, ORB_L1) ** 2
                        for mg in projections(g.j)
                        for me in projections(e.j)
                    ) / (g.j.twice + 1)
                    closed = averaged_sq_matrix_element(g, e, pair, ORB_L1)
                    assert brute == pytest.approx(closed, rel=1e-10, abs=1e-300)


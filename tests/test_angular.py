"""Exact angular-momentum algebra: frozen values, symmetries, orthogonality.

Expected numbers below are closed forms verified against an independent
symbolic implementation (sympy.physics.wigner); a sampled cross-check
against that oracle runs at the end of the module.
"""

import math
import re
import typing
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from h2plus.angular import HalfInt, HalfIntLike, _six_j, wigner6j
import racah_oracle
from spin_oracle import SpinOperator, minus_one_pow, projections, spin_reduced_matrix
from sublevel_oracle import clebsch_gordan, wigner3j

HALF = HalfInt(1)
THREE_HALF = HalfInt(3)


class TestHalfInt:
    def test_coercion(self):
        assert HalfInt.of(2).twice == 4
        assert HalfInt.of(HalfInt(7)) == HalfInt(7)

    def test_rejects_non_half_integers(self):
        # only a HalfInt or an int gets in; strings go through parse()
        for value in (1.5, 0.3, float("inf"), float("nan"), Fraction(1, 3),
                      Fraction(5, 2), True, "3/2"):
            with pytest.raises(TypeError, match="cannot interpret"):
                HalfInt.of(value)
        with pytest.raises(TypeError, match="got bool"):
            HalfInt(True)

    @pytest.mark.parametrize("function", [HalfInt.of, wigner6j],
                             ids=["HalfInt.of", "wigner6j"])
    def test_annotations_resolve(self, function):
        hints = typing.get_type_hints(function)
        assert hints.pop("return") in (HalfInt, float)
        assert set(hints.values()) == {HalfIntLike}

    def test_parse_and_str(self):
        assert HalfInt.parse("3/2") == THREE_HALF
        assert HalfInt.parse("2") == HalfInt(4)
        assert str(HalfInt(5)) == "5/2"
        assert str(HalfInt(4)) == "2"
        with pytest.raises(ValueError, match="expected a half-integer"):
            HalfInt.parse("-1/2")  # a label is never negative

    @given(st.integers(0, 20_001))
    @example(0)
    @example(1)
    @example(20_001)
    def test_parse_reads_what_str_writes(self, twice):
        assert HalfInt.parse(str(HalfInt(twice))) == HalfInt(twice)

    @pytest.mark.parametrize("text", ["10/2", "0/2", "01", "-1/2", "+3/2", " 3/2", "1_0",
                                      "3/4", "\u0665/2", "\uff15/2", "", 3])
    def test_parse_refuses_any_other_spelling(self, text):
        # "\u0665" and "\uff15" are the Arabic-Indic and fullwidth digit five
        message = f"expected a half-integer such as '3/2', got {text!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            HalfInt.parse(text)

    def test_arithmetic_and_order(self):
        assert HALF < THREE_HALF
        # no arithmetic: a tuple's + and * would concatenate or repeat it
        for operate in (lambda: HalfInt(1) * 2, lambda: 2 * HALF, lambda: HALF + 1,
                        lambda: HalfInt(1) + HalfInt(3), lambda: THREE_HALF - HALF,
                        lambda: -HalfInt(1), lambda: abs(HALF), lambda: float(HalfInt(1))):
            with pytest.raises(TypeError):
                operate()

    def test_projections(self):
        assert [m.twice for m in projections(THREE_HALF)] == [-3, -1, 1, 3]
        with pytest.raises(ValueError):
            projections(HalfInt(-2))

    def test_phase(self):
        assert minus_one_pow(1) == -1
        assert minus_one_pow(HALF, THREE_HALF) == 1
        assert minus_one_pow(HALF, THREE_HALF, 1) == -1
        with pytest.raises(ValueError):
            minus_one_pow(HALF)


class TestWigner3j:
    def test_frozen_values(self):
        assert wigner3j(1, 1, 0, 1, -1, 0) == pytest.approx(1 / math.sqrt(3), abs=1e-15)
        assert wigner3j(1, 1, 2, 0, 0, 0) == pytest.approx(math.sqrt(2 / 15), abs=1e-15)

    def test_m_violations_return_zero(self):
        assert wigner3j(1, 1, 1, 1, 1, -2) == 0.0
        assert wigner3j(1, 1, 1, 1, 0, 0) == 0.0  # m sum nonzero

    def test_triangle_violations_return_zero(self):
        assert wigner3j(1, 1, 3, 0, 0, 0) == 0.0
        assert wigner3j(2, HALF, HALF, 0, HALF, HalfInt(-1)) == 0.0  # j3 below |j1-j2|

    def test_vanishing_inside_domain(self):
        # allowed coupling whose Racah sum happens to cancel
        assert wigner3j(1, 1, 1, 0, 0, 0) == 0.0

    def test_parity_mismatch_raises(self):
        with pytest.raises(ValueError):
            wigner3j(HALF, 1, HALF, 0, 0, 0)
        with pytest.raises(ValueError):
            wigner3j(1, 1, 1, HALF, HalfInt(-1), 0)

    def test_negative_magnitude_raises(self):
        with pytest.raises(ValueError):
            wigner3j(-1, 1, 1, 0, 0, 0)

    def test_orthogonality_exhaustive(self):
        # sum_{m1,m2} (2j3+1) 3j(j1,j2,j3;m1,m2,m3) 3j(j1,j2,j3';m1,m2,m3)
        # = delta_{j3,j3'} for all j1, j2 <= 4.  (m3 != m3' terms vanish
        # identically through the m sum, checked separately.)
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
                            assert total == pytest.approx(expected, abs=1e-12), (
                                tj1, tj2, tj3, tj3p, tm3,
                            )

    def test_orthogonality_distinct_projections(self):
        # distinct m3, m3' make every product vanish through the m sum
        for tm3, tm3p in ((0, 2), (-2, 2), (-2, 0)):
            total = sum(
                wigner3j(1, 1, 1, HalfInt(tm1), HalfInt(tm2), HalfInt(tm3))
                * wigner3j(1, 1, 1, HalfInt(tm1), HalfInt(tm2), HalfInt(tm3p))
                for tm1 in (-2, 0, 2)
                for tm2 in (-2, 0, 2)
            )
            assert total == 0.0

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 12), st.integers(0, 12), st.integers(0, 12), st.data())
    def test_magnitude_bounded(self, tj1, tj2, tj3, data):
        if (tj1 + tj2 + tj3) % 2 or not abs(tj1 - tj2) <= tj3 <= tj1 + tj2:
            return
        tm1 = data.draw(st.sampled_from(range(-tj1, tj1 + 1, 2)))
        tm2 = data.draw(st.sampled_from(range(-tj2, tj2 + 1, 2)))
        tm3 = -(tm1 + tm2)
        if abs(tm3) > tj3:
            return
        value = wigner3j(
            HalfInt(tj1), HalfInt(tj2), HalfInt(tj3),
            HalfInt(tm1), HalfInt(tm2), HalfInt(tm3),
        )
        assert math.isfinite(value)
        assert abs(value) <= 1.0 + 1e-15


class TestWigner6j:
    def test_frozen_values(self):
        assert wigner6j(0, 0, 0, HALF, HALF, HALF) == pytest.approx(
            -1 / math.sqrt(2), abs=1e-15
        )
        assert wigner6j(1, 1, 1, 1, 1, 1) == pytest.approx(1 / 6, abs=1e-15)

    def test_triangle_violation_returns_zero(self):
        assert wigner6j(1, 2, 1, HALF, HALF, HALF) == 0.0   # triad (1/2, 2, 1/2)
        assert wigner6j(1, 1, 3, 1, 1, 1) == 0.0
        assert wigner6j(HALF, HALF, HALF, HALF, HALF, HALF) == 0.0  # odd perimeters

    def test_negative_magnitude_raises(self):
        with pytest.raises(ValueError):
            wigner6j(-1, 1, 1, 1, 1, 1)

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.integers(0, 10), min_size=6, max_size=6))
    def test_magnitude_bounded(self, twice_js):
        value = wigner6j(*(HalfInt(t) for t in twice_js))
        assert math.isfinite(value)
        assert abs(value) <= 1.0 + 1e-15

    def test_orthogonality_exhaustive(self):
        # sum_x (2x+1) {a b x; c d p} {a b x; c d q} = delta_pq / (2p+1)
        # for all a, b, c, d, p, q <= 4.
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
                                assert total == pytest.approx(expected, abs=1e-12), (
                                    ta, tb, tc, td, tp, tq,
                                )


class TestClebschGordan:
    def test_frozen_values(self):
        assert clebsch_gordan(1, 1, 1, 1, 2, 2) == pytest.approx(1.0, abs=1e-15)
        assert clebsch_gordan(1, 1, 1, -1, 0, 0) == pytest.approx(
            1 / math.sqrt(3), abs=1e-15
        )
        assert clebsch_gordan(1, 0, 1, 0, 2, 0) == pytest.approx(
            math.sqrt(2 / 3), abs=1e-15
        )

    def test_projection_mismatch_is_zero(self):
        assert clebsch_gordan(1, 1, 1, 0, 2, 0) == 0.0


class TestSpinReducedMatrix:
    def test_electron_spin_entries(self):
        s = SpinOperator.ELECTRON_SPIN
        assert spin_reduced_matrix(s, THREE_HALF, THREE_HALF) == pytest.approx(
            math.sqrt(15) / 3, abs=1e-15
        )
        assert spin_reduced_matrix(s, THREE_HALF, HALF) == pytest.approx(
            -2 / math.sqrt(3), abs=1e-15
        )
        assert spin_reduced_matrix(s, HALF, THREE_HALF) == pytest.approx(
            2 / math.sqrt(3), abs=1e-15
        )
        assert spin_reduced_matrix(s, HALF, HALF) == pytest.approx(
            -math.sqrt(6) / 6, abs=1e-15
        )

    def test_nuclear_spin_entries(self):
        n = SpinOperator.NUCLEAR_SPIN
        assert spin_reduced_matrix(n, THREE_HALF, THREE_HALF) == pytest.approx(
            2 * math.sqrt(15) / 3, abs=1e-15
        )
        assert spin_reduced_matrix(n, THREE_HALF, HALF) == pytest.approx(
            2 / math.sqrt(3), abs=1e-15
        )
        assert spin_reduced_matrix(n, HALF, THREE_HALF) == pytest.approx(
            -2 / math.sqrt(3), abs=1e-15
        )
        assert spin_reduced_matrix(n, HALF, HALF) == pytest.approx(
            2 * math.sqrt(6) / 3, abs=1e-15
        )

    def test_off_diagonal_sign_flip_structure(self):
        # the off-diagonal pattern of the two operators is transposed with
        # opposite signs
        s, n = SpinOperator.ELECTRON_SPIN, SpinOperator.NUCLEAR_SPIN
        assert spin_reduced_matrix(s, THREE_HALF, HALF) == -spin_reduced_matrix(
            n, THREE_HALF, HALF
        )
        assert spin_reduced_matrix(s, HALF, THREE_HALF) == -spin_reduced_matrix(
            n, HALF, THREE_HALF
        )
        assert spin_reduced_matrix(s, THREE_HALF, HALF) == -spin_reduced_matrix(
            s, HALF, THREE_HALF
        )

    def test_rejects_other_f(self):
        with pytest.raises(ValueError):
            spin_reduced_matrix(SpinOperator.ELECTRON_SPIN, HalfInt(5), HALF)
        with pytest.raises(ValueError):
            spin_reduced_matrix(SpinOperator.NUCLEAR_SPIN, HALF, HalfInt.of(0))


class TestAgainstSymbolicOracle:
    """Sampled comparison against an independent symbolic implementation."""

    def test_3j_against_sympy(self):
        sympy_wigner = pytest.importorskip("sympy.physics.wigner")
        from sympy import Rational

        cases = [
            (2, 3, 5, 2, -1, -1),
            (4, 4, 8, 0, 0, 0),
            (3, 3, 2, 1, 1, -2),
            (6, 5, 3, -4, 3, 1),
            (8, 8, 8, 2, -4, 2),
            (1, 2, 3, 1, 0, -1),
        ]
        for tj1, tj2, tj3, tm1, tm2, tm3 in cases:
            mine = wigner3j(
                HalfInt(tj1), HalfInt(tj2), HalfInt(tj3),
                HalfInt(tm1), HalfInt(tm2), HalfInt(tm3),
            )
            ref = float(
                sympy_wigner.wigner_3j(
                    Rational(tj1, 2), Rational(tj2, 2), Rational(tj3, 2),
                    Rational(tm1, 2), Rational(tm2, 2), Rational(tm3, 2),
                )
            )
            assert mine == pytest.approx(ref, abs=1e-14)

    def test_6j_against_sympy(self):
        sympy_wigner = pytest.importorskip("sympy.physics.wigner")
        from sympy import Rational

        cases = [
            (2, 2, 2, 2, 2, 2),
            (4, 6, 2, 2, 4, 6),
            (1, 3, 4, 3, 1, 2),
            (8, 8, 8, 8, 8, 8),
            (2, 4, 6, 3, 5, 3),
        ]
        for args in cases:
            mine = wigner6j(*(HalfInt(t) for t in args))
            ref = float(sympy_wigner.wigner_6j(*(Rational(t, 2) for t in args)))
            assert mine == pytest.approx(ref, abs=1e-14)


def _kernel_six_j_family() -> list[tuple[int, ...]]:
    """The 6j symbols {L k L'; J' F J} of the reduced two-photon elements,
    in 2j units: L <= 41, L' in {L-2, L, L+2}, k in {0, 2}, F in {1/2, 3/2}
    and every J, J' that F couples to L, L'.  Members that violate a
    triangle are kept: both sides must give exactly 0.0 for them."""
    symbols = set()
    for L in range(42):
        for Lp in (L - 2, L, L + 2):
            if Lp < 0:
                continue
            for k in (0, 2):
                for tf in (1, 3):
                    for tj in range(abs(2 * L - tf), 2 * L + tf + 1, 2):
                        for tjp in range(abs(2 * Lp - tf), 2 * Lp + tf + 1, 2):
                            symbols.add((2 * L, 2 * k, 2 * Lp, tjp, tf, tj))
    return sorted(symbols)


class TestAgainstFractionOracle:
    """The integer Racah sum of the 6j symbol gives the same float as the
    term-by-term `Fraction` sum, compared with ==, not within a tolerance."""

    def test_6j_kernel_family(self):
        symbols = _kernel_six_j_family()
        assert len(symbols) == 4838
        mismatches = [s for s in symbols if _six_j.__wrapped__(*s) != racah_oracle.six_j(*s)]
        assert mismatches == []

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(0, 40), min_size=4, max_size=4), st.data())
    def test_6j_random_large(self, twice_js, data):
        tj1, tj2, tj4, tj5 = twice_js

        def closing(ta, tb, tc, td):
            # a 2j that closes both triads (ta tb .) and (tc td .)
            options = [t for t in range(abs(ta - tb), ta + tb + 1, 2)
                       if racah_oracle._triangle_ok(tc, td, t)]
            assume(options)
            return data.draw(st.sampled_from(options))

        args = (tj1, tj2, closing(tj1, tj2, tj4, tj5), tj4, tj5, closing(tj1, tj5, tj4, tj2))
        assert _six_j.__wrapped__(*args) == racah_oracle.six_j(*args)

"""Hyperfine level structure: matrix entries, diagonalization, fitting."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from h2plus import hyperfine
from h2plus.angular import HalfInt, wigner6j
from h2plus.hyperfine import (
    F_HALF,
    F_THREE_HALF,
    FitError,
    HyperfineCoefficients,
    HyperfineSolution,
    L_MAX,
    PURE_STATE_THRESHOLD,
    RoVibLevel,
    diagonalize_even,
    diagonalize_odd,
    fit_coefficients,
    fit_even_coefficient,
    hfs_matrix_entries,
)
from matrix_oracle import allowed_spin_states, build_hfs_matrix, coefficient_array
from spin_oracle import SpinOperator, minus_one_pow, spin_reduced_matrix

SAMPLE = HyperfineCoefficients(900.0, 40.0, -40.0, 9.0, 6.0)


class TestRoVibLevel:
    def test_nuclear_spin_follows_l_parity(self):
        assert RoVibLevel(0, 0).nuclear_spin == 0
        assert RoVibLevel(0, 1).nuclear_spin == 1
        assert RoVibLevel(2, 4).nuclear_spin == 0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            RoVibLevel(-1, 0)
        with pytest.raises(ValueError):
            RoVibLevel(0, -2)
        with pytest.raises(ValueError, match=f"L={L_MAX + 1} exceeds L_MAX={L_MAX}"):
            RoVibLevel(0, L_MAX + 1)
        for v, L in ((0.5, 2), (True, 1), (0, 2.0)):
            with pytest.raises(TypeError):
                RoVibLevel(v, L)


class TestAllowedSpinStates:
    @pytest.mark.parametrize("L,count", [(0, 1), (1, 5), (2, 2), (3, 6), (4, 2), (5, 6)])
    def test_counts(self, L, count):
        assert len(allowed_spin_states(L)) == count

    def test_l0_single_state(self):
        (state,) = allowed_spin_states(0)
        assert (state.F, state.J) == (F_HALF, F_HALF)
        assert state.I == 0

    def test_l1_drops_j_below_zero_partner(self):
        states = allowed_spin_states(1)
        js = [(str(s.F), str(s.J)) for s in states]
        assert js == [
            ("3/2", "5/2"), ("3/2", "3/2"), ("1/2", "3/2"),
            ("3/2", "1/2"), ("1/2", "1/2"),
        ]

    def test_l3_has_low_j_f32_state(self):
        states = allowed_spin_states(3)
        assert (str(states[-1].F), str(states[-1].J)) == ("3/2", "3/2")
        assert all(s.I == 1 for s in states)

    def test_negative_l_raises(self):
        with pytest.raises(ValueError):
            allowed_spin_states(-1)


def tensor_algebra_block(L, J, fs, c):
    """Independent reconstruction of one J block from the 6j contraction.

    The relative phase of the F=1/2 and F=3/2 basis states is fixed to the
    ket convention (phase exponent uses the ket's F), which matches the
    closed forms and the published mixing-coefficient signs.
    """
    def vector_block(op):
        m = np.zeros((len(fs), len(fs)))
        for i, f in enumerate(fs):
            for k, fp in enumerate(fs):
                m[i, k] = (
                    minus_one_pow(J, L, fp)
                    * wigner6j(L, 1, L, fp, J, f)
                    * math.sqrt(L * (L + 1) * (2 * L + 1))
                    * spin_reduced_matrix(op, f, fp)
                )
        return m

    i_dot_s = np.diag([0.5 * (f.twice / 2 * (f.twice / 2 + 1) - 11 / 4) for f in fs])
    l_dot_s = vector_block(SpinOperator.ELECTRON_SPIN)
    l_dot_i = vector_block(SpinOperator.NUCLEAR_SPIN)
    l_sq = L * (L + 1)
    eye = np.eye(len(fs))
    h = c.b_f * i_dot_s + c.c_e * l_dot_s + c.c_i * l_dot_i
    h += c.d1 / ((2 * L - 1) * (2 * L + 3)) * (
        2 / 3 * l_sq * i_dot_s - (l_dot_i @ l_dot_s + l_dot_s @ l_dot_i)
    )
    h += c.d2 / ((2 * L - 1) * (2 * L + 3)) * (
        1 / 3 * l_sq * 2.0 * eye - 0.5 * l_dot_i - l_dot_i @ l_dot_i
    )
    return h


class TestMatrixEntries:
    def test_pure_contact_term(self):
        # b_F alone shifts F=3/2 by +b_F/2 and F=1/2 by -b_F, with no mixing
        e = hfs_matrix_entries(1, HyperfineCoefficients(b_f=1.0))
        assert e["A"] == pytest.approx(0.5)
        assert e["B"] == pytest.approx(0.5)
        assert e["D"] == pytest.approx(-1.0)
        assert e["E"] == pytest.approx(0.5)
        assert e["H"] == pytest.approx(-1.0)
        assert e["C"] == 0.0
        assert e["G"] == 0.0
        assert "K" not in e

    def test_block_structure(self):
        h = build_hfs_matrix(3, SAMPLE)
        assert h.shape == (6, 6)
        expected_zero = np.ones((6, 6), dtype=bool)
        for i, k in [(0, 0), (1, 1), (2, 2), (3, 3), (4, 4), (5, 5),
                     (1, 2), (2, 1), (3, 4), (4, 3)]:
            expected_zero[i, k] = False
        assert np.all(h[expected_zero] == 0.0)
        assert np.allclose(h, h.T)

    def test_l1_matrix_is_5x5(self):
        assert build_hfs_matrix(1, SAMPLE).shape == (5, 5)

    def test_even_l_rejected(self):
        with pytest.raises(ValueError):
            hfs_matrix_entries(2, SAMPLE)
        with pytest.raises(ValueError):
            build_hfs_matrix(0, SAMPLE)

    @pytest.mark.parametrize("L", [1, 3, 5])
    def test_against_tensor_algebra_oracle(self, L):
        e = hfs_matrix_entries(L, SAMPLE)
        tl = 2 * L
        blk = tensor_algebra_block(L, HalfInt(tl + 3), [F_THREE_HALF], SAMPLE)
        assert e["A"] == pytest.approx(blk[0, 0], abs=1e-10)
        blk = tensor_algebra_block(L, HalfInt(tl + 1), [F_THREE_HALF, F_HALF], SAMPLE)
        assert e["B"] == pytest.approx(blk[0, 0], abs=1e-10)
        assert e["C"] == pytest.approx(blk[0, 1], abs=1e-10)
        assert e["D"] == pytest.approx(blk[1, 1], abs=1e-10)
        blk = tensor_algebra_block(L, HalfInt(tl - 1), [F_THREE_HALF, F_HALF], SAMPLE)
        assert e["E"] == pytest.approx(blk[0, 0], abs=1e-10)
        assert e["G"] == pytest.approx(blk[0, 1], abs=1e-10)
        assert e["H"] == pytest.approx(blk[1, 1], abs=1e-10)
        if L >= 3:
            blk = tensor_algebra_block(L, HalfInt(tl - 3), [F_THREE_HALF], SAMPLE)
            assert e["K"] == pytest.approx(blk[0, 0], abs=1e-10)


class TestDiagonalizeEven:
    def test_published_shifts(self):
        solution = diagonalize_even(2, 42.1625, v=0)
        assert solution.state(F_HALF, HalfInt.parse("5/2")).shift_mhz == pytest.approx(
            42.1625, abs=1e-12
        )
        assert solution.state(F_HALF, HalfInt.parse("3/2")).shift_mhz == pytest.approx(
            -63.2438, abs=1e-4
        )

    def test_l0_single_unshifted_state(self):
        solution = diagonalize_even(0, 1234.5)
        assert len(solution.states) == 1
        state = solution.states[0]
        assert state.shift_mhz == 0.0
        assert (state.f_tilde, state.j) == (F_HALF, F_HALF)
        assert (state.c1, state.c3) == (1.0, 0.0)

    def test_zero_coupling(self):
        solution = diagonalize_even(2, 0.0)
        assert all(s.shift_mhz == 0.0 for s in solution.states)

    def test_states_are_pure_and_ordered(self):
        solution = diagonalize_even(4, 10.0)
        assert [s.j.twice for s in solution.states] == [9, 7]
        assert all(min(abs(s.c1), abs(s.c3)) < PURE_STATE_THRESHOLD for s in solution.states)

    def test_odd_l_rejected(self):
        with pytest.raises(ValueError):
            diagonalize_even(1, 10.0)
        for L in (L_MAX + 1, L_MAX + 2):  # the level's bound comes first
            with pytest.raises(ValueError, match="exceeds L_MAX"):
                diagonalize_even(L, 10.0)


class TestDiagonalizeOdd:
    def test_contact_term_limit(self):
        # b_F alone: F~=3/2 states at +b_F/2, F~=1/2 at -b_F, all pure
        solution = diagonalize_odd(1, HyperfineCoefficients(b_f=800.0))
        for state in solution.states:
            assert min(abs(state.c1), abs(state.c3)) < PURE_STATE_THRESHOLD
            expected = 400.0 if state.f_tilde == F_THREE_HALF else -800.0
            assert state.shift_mhz == pytest.approx(expected, abs=1e-12)
        for f, amplitudes in ((F_THREE_HALF, (0.0, 1.0)), (F_HALF, (1.0, 0.0))):
            state = solution.state(f, HalfInt.parse("3/2"))
            assert (state.c1, state.c3) == amplitudes

    def test_ordering_matches_descending_j_then_f(self):
        solution = diagonalize_odd(3, SAMPLE)
        labels = [(str(s.f_tilde), str(s.j)) for s in solution.states]
        assert labels == [
            ("3/2", "9/2"), ("3/2", "7/2"), ("1/2", "7/2"),
            ("3/2", "5/2"), ("1/2", "5/2"), ("3/2", "3/2"),
        ]

    def test_even_l_rejected(self):
        with pytest.raises(ValueError):
            diagonalize_odd(2, SAMPLE)
        for L in (L_MAX + 1, L_MAX + 2):  # the level's bound comes first
            with pytest.raises(ValueError, match="exceeds L_MAX"):
                diagonalize_odd(L, SAMPLE)

    @pytest.mark.parametrize("L", [1, 3])
    def test_eigen_residual(self, L):
        solution = diagonalize_odd(L, SAMPLE)
        h = build_hfs_matrix(L, SAMPLE)
        basis = allowed_spin_states(L)
        for state in solution.states:
            vec = np.zeros(len(basis))
            for idx, b in enumerate(basis):
                if b.J == state.j:
                    vec[idx] = state.c3 if b.F == F_THREE_HALF else state.c1
            residual = np.max(np.abs(h @ vec - state.shift_mhz * vec))
            assert residual < 1e-9

    @pytest.mark.parametrize("L", [1, 3])
    def test_block_trace_preserved(self, L):
        e = hfs_matrix_entries(L, SAMPLE)
        solution = diagonalize_odd(L, SAMPLE)
        tl = 2 * L
        upper = [s for s in solution.states if s.j.twice == tl + 1]
        lower = [s for s in solution.states if s.j.twice == tl - 1]
        assert sum(s.shift_mhz for s in upper) == pytest.approx(e["B"] + e["D"], rel=1e-14)
        assert sum(s.shift_mhz for s in lower) == pytest.approx(e["E"] + e["H"], rel=1e-14)

    @pytest.mark.parametrize("L", [1, 3])
    def test_mixing_orthonormality(self, L):
        solution = diagonalize_odd(L, SAMPLE)
        for tj in (2 * L + 1, 2 * L - 1):
            pair = [s for s in solution.states if s.j.twice == tj]
            assert len(pair) == 2
            hi, lo = pair
            assert hi.c1 * lo.c1 + hi.c3 * lo.c3 == pytest.approx(0.0, abs=1e-12)
            for s in pair:
                assert s.c1**2 + s.c3**2 == pytest.approx(1.0, abs=1e-12)

    def test_dominant_coefficient_matches_label(self):
        solution = diagonalize_odd(3, SAMPLE)
        for state in solution.states:
            if state.f_tilde == F_THREE_HALF:
                assert abs(state.c3) > abs(state.c1)
            else:
                assert abs(state.c1) > abs(state.c3)

    def test_sign_convention(self):
        # F~=3/2 has C3 > 0; its F~=1/2 partner is the orthogonal complement
        solution = diagonalize_odd(1, SAMPLE)
        for tj in (3, 1):
            hi = next(s for s in solution.states
                      if s.j.twice == tj and s.f_tilde == F_THREE_HALF)
            lo = next(s for s in solution.states
                      if s.j.twice == tj and s.f_tilde == F_HALF)
            assert hi.c3 > 0
            assert lo.c1 == pytest.approx(-hi.c3, abs=1e-15)
            assert lo.c3 == pytest.approx(hi.c1, abs=1e-15)

    def test_pure_state_limit(self):
        # equal c_e = c_I and d1 = d2 cancel both off-diagonal entries
        c = HyperfineCoefficients(900.0, 25.0, 25.0, 4.0, 4.0)
        e = hfs_matrix_entries(1, c)
        assert e["C"] == 0.0
        assert e["G"] == 0.0
        solution = diagonalize_odd(1, c)
        for state in solution.states:
            assert (state.c1, state.c3) in ((0.0, 1.0), (1.0, 0.0))


class TestFitCoefficients:
    def test_synthetic_round_trip(self):
        for L in (1, 3):
            observed = diagonalize_odd(L, SAMPLE)
            fit = fit_coefficients(L, observed)
            recovered = coefficient_array(fit.coefficients)
            assert np.max(np.abs(recovered - coefficient_array(SAMPLE))) < 1e-6
            assert fit.max_shift_residual_mhz < 1e-9

    def test_published_data_round_trip(self, reference_levels_odd):
        for observed in reference_levels_odd:
            L = observed.level.L
            fit = fit_coefficients(L, observed)
            assert fit.max_shift_residual_mhz < 1e-3  # < 1 kHz budget
            predicted = diagonalize_odd(L, fit.coefficients, v=observed.level.v)
            for ref, got in zip(observed.states, predicted.states):
                assert got.shift_mhz == pytest.approx(ref.shift_mhz, abs=1e-4)
                assert got.c1 == pytest.approx(ref.c1, abs=1e-5)
                assert got.c3 == pytest.approx(ref.c3, abs=1e-5)

    def test_state_order_irrelevant(self):
        solution = diagonalize_odd(3, SAMPLE)
        shuffled = HyperfineSolution(solution.level, tuple(reversed(solution.states)))
        fit = fit_coefficients(3, shuffled)
        deviation = coefficient_array(fit.coefficients) - coefficient_array(SAMPLE)
        assert np.max(np.abs(deviation)) < 1e-6

    def test_even_l_rejected(self):
        with pytest.raises(ValueError):
            fit_coefficients(2, diagonalize_even(2, 40.0))

    def test_missing_states_rejected(self):
        full = diagonalize_odd(3, SAMPLE)
        partial = HyperfineSolution(full.level, full.states[:4])
        with pytest.raises(FitError):
            fit_coefficients(3, partial)

    def test_exhausted_step_cap_is_fit_error(self, monkeypatch, reference_levels_odd):
        monkeypatch.setattr(hyperfine, "_MAX_STEPS", 1)
        observed = reference_levels_odd[0]
        with pytest.raises(FitError, match="did not converge"):
            fit_coefficients(observed.level.L, observed)

    def test_fit_diagonalizes_once_per_step(self, monkeypatch, reference_levels_odd):
        # one diagonalization seeds the polish and one evaluates each trial
        # step; the Jacobian comes from the evaluation, not from extra calls
        calls = []
        diagonalize = hyperfine.diagonalize_odd

        def counted(*args, **kwargs):
            calls.append(args)
            return diagonalize(*args, **kwargs)

        monkeypatch.setattr(hyperfine, "diagonalize_odd", counted)
        for observed in reference_levels_odd:
            calls.clear()
            fit_coefficients(observed.level.L, observed)
            assert len(calls) <= 6, observed.level

    @pytest.mark.parametrize("L", [1, 3])
    def test_degenerate_blocks_end_the_polish(self, L):
        # all-zero constants make both J blocks degenerate, where the
        # eigenvectors have no derivative; the exact seed is returned
        fit = fit_coefficients(L, diagonalize_odd(L, HyperfineCoefficients()))
        assert coefficient_array(fit.coefficients).tolist() == [0.0] * 5
        assert fit.max_shift_residual_mhz == 0.0

    def test_unmatched_mixing_is_fit_error(self):
        # the mixing amplitudes of real constants with every shift zeroed:
        # the all-zero constants fit the shifts exactly and miss the
        # mixings by ~0.09
        solution = diagonalize_odd(3, HyperfineCoefficients(900.0, 40.0, -40.0, 9.0, 6.0))
        observed = HyperfineSolution(
            solution.level, tuple(s._replace(shift_mhz=0.0) for s in solution.states))
        with pytest.raises(FitError, match="mixing-amplitude residual"):
            fit_coefficients(3, observed)

    def test_mixing_limit_is_the_validate_tolerance(self):
        from h2plus.validate import MIXING_TOLERANCE

        assert hyperfine._MIXING_RESIDUAL_LIMIT == MIXING_TOLERANCE

    def test_refit_reproduces_shipped_constants(self, reference_levels_odd, coefficients):
        for observed in reference_levels_odd:
            fit = fit_coefficients(observed.level.L, observed)
            shipped = coefficient_array(coefficients[observed.level].coefficients)
            relative = np.abs(coefficient_array(fit.coefficients) - shipped) / np.abs(shipped)
            assert np.max(relative) < 2e-6, observed.level

    def test_fit_imports_no_third_party_module(self):
        script = (
            "import sys\n"
            "before = set(sys.modules)\n"
            "import h2plus.cli\n"
            "from h2plus.datafiles import load_reference_levels_odd\n"
            "from h2plus.hyperfine import fit_coefficients\n"
            "for observed in load_reference_levels_odd():\n"
            "    fit_coefficients(observed.level.L, observed)\n"
            "loaded = {name.split('.')[0] for name in set(sys.modules) - before}\n"
            "print(sorted(loaded - set(sys.stdlib_module_names)))\n"
        )
        src = Path(__file__).resolve().parents[1] / "src"
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, env=env, check=True)
        assert proc.stdout.strip() == "['h2plus']"

    @pytest.mark.parametrize("rows", [10, 7])
    def test_least_squares_matches_numpy(self, rows):
        rng = np.random.default_rng(rows)
        for _ in range(20):
            design = rng.normal(size=(rows, 5)) * rng.uniform(0.1, 1e3, size=5)
            rhs = rng.normal(size=rows) * 1e2
            expected, *_ = np.linalg.lstsq(design, rhs, rcond=None)
            got = hyperfine._least_squares(design.T.tolist(), rhs.tolist())
            assert np.max(np.abs(np.array(got) - expected)) < 1e-12 * np.max(np.abs(expected))

    def test_least_squares_zero_column_is_fit_error(self):
        columns = [[1.0, 2.0, 3.0], [0.0, 0.0, 0.0], [1.0, -1.0, 0.5]]
        with pytest.raises(FitError, match="rank deficient"):
            hyperfine._least_squares(columns, [1.0, 2.0, 3.0])

    def test_even_inversion(self):
        fit = fit_even_coefficient(2, 39.5716, -59.3574)
        assert fit.coefficients.c_e == pytest.approx(39.5716, abs=1e-12)
        assert fit.max_shift_residual_mhz < 1e-4
        assert fit_even_coefficient(0, 0.0).coefficients.c_e == 0.0
        with pytest.raises(ValueError):
            fit_even_coefficient(1, 10.0)


def _observations(L, params):
    solution = diagonalize_odd(L, HyperfineCoefficients(*params))
    return np.array(hyperfine._observation_vector(solution))


@settings(max_examples=60, deadline=None)
@given(
    L=st.sampled_from(range(1, 43, 2)),
    params=st.tuples(
        st.floats(500.0, 1000.0),
        st.floats(-100.0, 100.0),
        st.floats(-100.0, 100.0),
        st.floats(-200.0, 200.0),
        st.floats(-200.0, 200.0),
    ),
)
@example(L=1, params=(900.0, 25.0, 25.0, 4.0, 4.0))  # the pure-state point
@example(L=41, params=(900.0, 25.0, 25.0, 4.0, 4.0))
def test_jacobian_matches_central_differences(L, params):
    """The closed-form fit Jacobian against central differences of the
    observation vector, relative to each column's largest entry."""
    solution = diagonalize_odd(L, HyperfineCoefficients(*params))
    shifts = [s.shift_mhz for s in solution.states]
    gaps = [shifts[1] - shifts[2], shifts[3] - shifts[4]]
    # central differences lose their accuracy near a degenerate block
    assume(min(map(abs, gaps)) > 0.1 * max(map(abs, shifts)))
    jacobian = hyperfine._jacobian(L, solution)
    for col, column in enumerate(jacobian):
        h = 1e-4 * max(abs(params[col]), 1.0)
        up, down = list(params), list(params)
        up[col] += h
        down[col] -= h
        central = (_observations(L, up) - _observations(L, down)) / (2 * h)
        scale = np.max(np.abs(central))
        assert np.max(np.abs(np.array(column) - central)) <= 1e-6 * scale, col


class TestCoefficientsType:
    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            HyperfineCoefficients(b_f=float("nan"))
        with pytest.raises(ValueError):
            HyperfineCoefficients(c_e=float("inf"))

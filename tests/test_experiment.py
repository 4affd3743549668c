"""Rate, beam and cavity estimates against the published experimental chain."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from h2plus.experiment import (
    RATE_PREFACTOR_M4_PER_J2,
    CavityParams,
    LaserParams,
    beam_axis_intensity,
    cavity_isolation_db,
    cavity_transmission,
    rate_at_resonance,
    transverse_field_decomposition,
)

GAMMA_F = 2 * math.pi * 2600.0  # rad/s, the quoted instrumental width

positive = st.floats(min_value=1e-3, max_value=1e3, allow_nan=False)


class TestBeamIntensity:
    def test_published_value(self):
        params = LaserParams(10.0, 1e-3, GAMMA_F)
        intensity = beam_axis_intensity(params)
        assert intensity == pytest.approx(2 * 10 / (math.pi * 1e-6), rel=1e-12)
        assert intensity / 1e6 == pytest.approx(6.4, rel=0.01)  # W/mm^2

    def test_zero_power(self):
        assert beam_axis_intensity(LaserParams(0.0, 1e-3, GAMMA_F)) == 0.0

    @settings(max_examples=50, deadline=None)
    @given(power=positive, waist=positive)
    def test_linearity_in_power(self, power, waist):
        one = beam_axis_intensity(LaserParams(power, waist, GAMMA_F))
        two = beam_axis_intensity(LaserParams(2 * power, waist, GAMMA_F))
        assert two == pytest.approx(2 * one, rel=1e-12)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            LaserParams(-1.0, 1e-3, GAMMA_F)
        with pytest.raises(ValueError):
            LaserParams(1.0, 0.0, GAMMA_F)
        with pytest.raises(ValueError):
            LaserParams(1.0, 1e-3, 0.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("index", range(3))
    def test_non_finite_rejected(self, index, value):
        args = [10.0, 1e-3, GAMMA_F]
        args[index] = value
        with pytest.raises(ValueError, match="finite"):
            LaserParams(*args)


class TestRateAtResonance:
    def test_prefactor_value(self):
        # documented derived constant of the unit convention
        assert RATE_PREFACTOR_M4_PER_J2 == pytest.approx(3.47e-9, rel=5e-3)

    def test_circular_polarization_estimate(self):
        intensity = beam_axis_intensity(LaserParams(10.0, 1e-3, GAMMA_F))
        rate = rate_at_resonance(intensity, GAMMA_F, 0.02)
        assert rate == pytest.approx(0.7, rel=0.10)

    def test_transverse_field_estimate(self):
        intensity = beam_axis_intensity(LaserParams(10.0, 1e-3, GAMMA_F))
        i_pi, _, _ = transverse_field_decomposition(intensity)
        rate = rate_at_resonance(i_pi, GAMMA_F, 0.2)
        assert rate == pytest.approx(1.7, rel=0.10)

    def test_zero_matrix_element(self):
        assert rate_at_resonance(6.4e6, GAMMA_F, 0.0) == 0.0

    def test_divergent_width_rejected(self):
        with pytest.raises(ValueError):
            rate_at_resonance(6.4e6, 0.0, 0.02)
        with pytest.raises(ValueError):
            rate_at_resonance(-1.0, GAMMA_F, 0.02)

    @settings(max_examples=50, deadline=None)
    @given(intensity=positive, gamma=positive, q_sq=positive)
    def test_power_laws(self, intensity, gamma, q_sq):
        base = rate_at_resonance(intensity, gamma, q_sq)
        assert rate_at_resonance(3 * intensity, gamma, q_sq) == pytest.approx(
            9 * base, rel=1e-12
        )
        assert rate_at_resonance(intensity, 2 * gamma, q_sq) == pytest.approx(
            base / 2, rel=1e-12
        )
        assert rate_at_resonance(intensity, gamma, 5 * q_sq) == pytest.approx(
            5 * base, rel=1e-12
        )

    def test_published_chain_end_to_end(self):
        # 90 mW source, 60% optics transmission, 10 mW measured behind the
        # cavity with mirror transmission 0.001 -> 10 W on the ions
        source_w, optics = 0.090, 0.60
        injected = source_w * optics
        assert injected == pytest.approx(0.054)
        mirror_transmission = 0.001
        transmitted = 0.010
        on_ions = transmitted / mirror_transmission
        intensity = beam_axis_intensity(LaserParams(on_ions, 1e-3, GAMMA_F))
        assert intensity / 1e6 == pytest.approx(6.4, rel=0.01)
        rate = rate_at_resonance(intensity, GAMMA_F, 0.02)
        assert rate == pytest.approx(0.7, rel=0.10)


class TestTransverseDecomposition:
    def test_published_split(self):
        i_pi, i_sm, i_sp = transverse_field_decomposition(6.4e6)
        assert i_pi == pytest.approx(3.2e6)
        assert i_sm == pytest.approx(1.6e6)
        assert i_sp == pytest.approx(1.6e6)

    def test_zero(self):
        assert transverse_field_decomposition(0.0) == (0.0, 0.0, 0.0)

    @settings(max_examples=30, deadline=None)
    @given(intensity=positive)
    def test_components_sum_to_total(self, intensity):
        assert sum(transverse_field_decomposition(intensity)) == pytest.approx(
            intensity, rel=1e-12
        )

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            transverse_field_decomposition(-1.0)


class TestCavity:
    def test_published_figures(self):
        cavity = CavityParams(0.98, 0.001)
        assert cavity_transmission(cavity) == pytest.approx(0.90, rel=0.01)
        assert cavity_isolation_db(cavity) == pytest.approx(40.0, rel=0.01)

    def test_lossless_cavity_transmits_fully(self):
        assert cavity_transmission(CavityParams(0.98, 0.0)) == 1.0

    def test_equal_loss_and_transmission_quarter(self):
        # P = T = (1-R)/2 gives 1/(1+1)^2 = 1/4
        r = 0.98
        p = (1 - r) / 2
        assert cavity_transmission(CavityParams(r, p)) == pytest.approx(0.25, rel=1e-12)

    def test_no_cavity_limit(self):
        assert cavity_isolation_db(CavityParams(0.0, 0.0)) == pytest.approx(0.0, abs=1e-12)

    def test_isolation_monotone_in_reflectivity(self):
        values = [
            cavity_isolation_db(CavityParams(r, 0.001))
            for r in (0.5, 0.8, 0.9, 0.95, 0.98, 0.995)
        ]
        assert values == sorted(values)

    @settings(max_examples=100, deadline=None)
    @given(
        r=st.floats(min_value=0.0, max_value=0.998, allow_nan=False),
        p=st.floats(min_value=0.0, max_value=1e-3, allow_nan=False),
    )
    def test_ranges(self, r, p):
        cavity = CavityParams(r, p)
        transmission = cavity_transmission(cavity)
        assert 0.0 < transmission <= 1.0
        assert cavity_isolation_db(cavity) >= 0.0

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            CavityParams(1.2, 0.0)
        with pytest.raises(ValueError):
            CavityParams(0.9, -0.1)
        with pytest.raises(ValueError):
            CavityParams(0.999, 0.002)  # R + P > 1

    def test_degenerate_mirrors_rejected(self):
        cavity = CavityParams(0.5, 0.5)  # zero transmission exactly
        with pytest.raises(ValueError):
            cavity_transmission(cavity)
        with pytest.raises(ValueError):
            cavity_isolation_db(cavity)

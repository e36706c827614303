"""Tests for the ocean wave spectra."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.physics.spectrum import (
    PiersonMoskowitzSpectrum,
    SeaState,
    sea_state_spectrum,
    significant_wave_height,
    spectral_moment,
)


class TestPiersonMoskowitz:
    def test_peak_frequency_decreases_with_wind(self):
        slow = PiersonMoskowitzSpectrum(3.0)
        fast = PiersonMoskowitzSpectrum(10.0)
        assert fast.peak_frequency_hz < slow.peak_frequency_hz

    def test_density_peaks_near_declared_peak(self):
        sp = PiersonMoskowitzSpectrum(5.0)
        f = np.linspace(0.01, 2.0, 4000)
        s = sp.density(f)
        f_at_max = f[np.argmax(s)]
        assert abs(f_at_max - sp.peak_frequency_hz) < 0.02

    def test_density_zero_at_zero_frequency(self):
        sp = PiersonMoskowitzSpectrum(5.0)
        assert sp.density(np.array([0.0]))[0] == 0.0

    def test_hs_grows_with_wind(self):
        h3 = PiersonMoskowitzSpectrum(3.0).significant_wave_height()
        h8 = PiersonMoskowitzSpectrum(8.0).significant_wave_height()
        assert h8 > 2 * h3

    def test_hs_plausible_magnitude(self):
        # A 10 m/s fully developed sea is roughly 2-2.5 m significant.
        hs = PiersonMoskowitzSpectrum(10.0).significant_wave_height()
        assert 1.0 < hs < 4.0

    def test_rejects_bad_wind(self):
        with pytest.raises(ConfigurationError):
            PiersonMoskowitzSpectrum(0.0)

    def test_rejects_negative_frequencies(self):
        sp = PiersonMoskowitzSpectrum(5.0)
        with pytest.raises(ConfigurationError):
            sp.density(np.array([-0.1]))


class TestMomentsAndStats:
    def test_moment_zero_positive(self, calm_spectrum):
        assert spectral_moment(calm_spectrum, 0) > 0

    def test_higher_moments_weight_high_frequencies(self, calm_spectrum):
        m0 = spectral_moment(calm_spectrum, 0)
        m2 = spectral_moment(calm_spectrum, 2)
        assert m2 < m0  # peak below 1 Hz -> f^2 shrinks mass

    def test_hs_equals_4_sqrt_m0(self, calm_spectrum):
        hs = significant_wave_height(calm_spectrum)
        m0 = spectral_moment(calm_spectrum, 0)
        assert np.isclose(hs, 4.0 * np.sqrt(m0))

    def test_moment_rejects_negative_order(self, calm_spectrum):
        with pytest.raises(ConfigurationError):
            spectral_moment(calm_spectrum, -1)


class TestSeaStates:
    def test_all_states_build_their_spectrum(self):
        for state in SeaState:
            spectrum = sea_state_spectrum(state)
            assert spectrum == PiersonMoskowitzSpectrum(state.wind_speed_mps)
            assert spectrum.peak_frequency_hz > 0

    def test_states_ordered_by_wind(self):
        winds = [s.wind_speed_mps for s in SeaState]
        assert winds == sorted(winds)

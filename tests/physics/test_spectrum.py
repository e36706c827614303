"""Tests for the ocean wave spectra."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.physics.spectrum import (
    JONSWAPSpectrum,
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


class TestJONSWAP:
    def test_peak_enhancement_exceeds_pm(self):
        u = 6.0
        j = JONSWAPSpectrum(u, fetch_m=30e3)
        fp = j.peak_frequency_hz
        pm_like = JONSWAPSpectrum(u, fetch_m=30e3, gamma=1.0)
        assert j.density(np.array([fp]))[0] > pm_like.density(np.array([fp]))[0]

    def test_gamma_one_matches_pm_shape(self):
        j = JONSWAPSpectrum(6.0, gamma=1.0)
        f = np.array([j.peak_frequency_hz * 2.0])
        # gamma^r == 1 everywhere, so density is the base PM-type form.
        assert j.density(f)[0] > 0

    def test_shorter_fetch_higher_peak_frequency(self):
        near = JONSWAPSpectrum(6.0, fetch_m=5e3)
        far = JONSWAPSpectrum(6.0, fetch_m=200e3)
        assert near.peak_frequency_hz > far.peak_frequency_hz

    def test_rejects_bad_gamma(self):
        with pytest.raises(ConfigurationError):
            JONSWAPSpectrum(6.0, gamma=0.5)

    def test_rejects_bad_fetch(self):
        with pytest.raises(ConfigurationError):
            JONSWAPSpectrum(6.0, fetch_m=0.0)


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
    def test_all_states_build_both_kinds(self):
        for state in SeaState:
            pm = sea_state_spectrum(state)
            js = sea_state_spectrum(state, "jonswap")
            assert pm.peak_frequency_hz > 0
            assert js.peak_frequency_hz > 0

    def test_states_ordered_by_wind(self):
        winds = [s.wind_speed_mps for s in SeaState]
        assert winds == sorted(winds)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            sea_state_spectrum(SeaState.CALM, "swell")

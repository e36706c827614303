"""Tests for the from-scratch Morlet CWT."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.errors import ConfigurationError, SignalLengthError
from repro.dsp.wavelet import MorletWavelet, Scalogram, cwt_morlet


class TestMorletWavelet:
    def test_peak_at_zero(self):
        m = MorletWavelet()
        t = np.linspace(-5, 5, 1001)
        psi = np.abs(m.evaluate(t))
        assert np.argmax(psi) == 500

    def test_unit_l2_norm(self):
        m = MorletWavelet()
        t = np.linspace(-8, 8, 20001)
        dt = t[1] - t[0]
        norm = np.sqrt(np.sum(np.abs(m.evaluate(t)) ** 2) * dt)
        assert norm == pytest.approx(1.0, rel=1e-3)

    def test_scale_frequency_roundtrip(self):
        m = MorletWavelet(w0=6.0)
        s = m.scale_for_frequency(0.5)
        # Centre frequency of the scaled Morlet: w0 / (2 pi s).
        assert 6.0 / (2.0 * math.pi * s) == pytest.approx(0.5)

    def test_low_w0_rejected(self):
        with pytest.raises(ConfigurationError):
            MorletWavelet(w0=3.0)

    def test_support_radius_scales(self):
        m = MorletWavelet()
        assert m.support_radius(2.0) == 2 * m.support_radius(1.0)


class TestCWT:
    def test_tone_frequency_recovered(self):
        rate = 50.0
        t = np.arange(0, 60, 1 / rate)
        sig = np.sin(2 * np.pi * 0.5 * t)
        sc = cwt_morlet(sig, rate, frequencies_hz=np.geomspace(0.1, 2.0, 30))
        j = len(t) // 2
        assert sc.dominant_frequency_at(j) == pytest.approx(0.5, rel=0.1)

    def test_two_tone_separation(self):
        rate = 50.0
        t = np.arange(0, 120, 1 / rate)
        sig = np.where(
            t < 60, np.sin(2 * np.pi * 0.3 * t), np.sin(2 * np.pi * 1.2 * t)
        )
        freqs = np.geomspace(0.1, 3.0, 40)
        sc = cwt_morlet(sig, rate, frequencies_hz=freqs)
        early = sc.dominant_frequency_at(int(20 * rate))
        late = sc.dominant_frequency_at(int(100 * rate))
        assert early == pytest.approx(0.3, rel=0.15)
        assert late == pytest.approx(1.2, rel=0.15)

    def test_burst_time_localisation(self):
        rate = 50.0
        t = np.arange(0, 60, 1 / rate)
        sig = np.zeros_like(t)
        burst = (t > 30) & (t < 33)
        sig[burst] = np.sin(2 * np.pi * 1.0 * t[burst])
        sc = cwt_morlet(sig, rate, frequencies_hz=np.array([1.0]))
        peak_t = sc.times_s[np.argmax(sc.power[0])]
        assert 30 < peak_t < 33

    def test_amplitude_scaling(self):
        rate = 50.0
        t = np.arange(0, 60, 1 / rate)
        weak = cwt_morlet(np.sin(2 * np.pi * 0.5 * t), rate,
                          frequencies_hz=np.array([0.5]))
        strong = cwt_morlet(3 * np.sin(2 * np.pi * 0.5 * t), rate,
                            frequencies_hz=np.array([0.5]))
        j = len(t) // 2
        assert strong.power[0, j] / weak.power[0, j] == pytest.approx(9.0, rel=0.01)

    def test_default_frequency_grid(self):
        sc = cwt_morlet(np.random.default_rng(0).normal(size=2000), 50.0)
        assert len(sc.frequencies_hz) == 48
        assert sc.power.shape == (48, 2000)

    def test_rejects_short_signal(self):
        with pytest.raises(SignalLengthError):
            cwt_morlet(np.ones(4), 50.0)

    def test_rejects_negative_frequencies(self):
        with pytest.raises(ConfigurationError):
            cwt_morlet(np.ones(100), 50.0, frequencies_hz=np.array([-0.5]))

    def test_scalogram_validation(self):
        with pytest.raises(ConfigurationError):
            Scalogram(
                frequencies_hz=np.arange(3),
                times_s=np.arange(5),
                power=np.ones((2, 5)),
            )

"""Tests for FFT helpers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import SignalLengthError
from repro.dsp.fft_utils import power_spectrum
from repro.dsp.window import hann


def test_power_spectrum_locates_tone():
    rate = 50.0
    t = np.arange(0, 40, 1 / rate)
    sig = np.sin(2 * np.pi * 0.5 * t)
    f, p = power_spectrum(sig, rate)
    assert abs(f[np.argmax(p)] - 0.5) < 0.05


def test_power_spectrum_detrends_dc():
    rate = 50.0
    t = np.arange(0, 20, 1 / rate)
    sig = 1000.0 + np.sin(2 * np.pi * 1.0 * t)
    f, p = power_spectrum(sig, rate)
    assert f[np.argmax(p)] > 0.5  # DC removed, tone dominates


def test_power_spectrum_frequencies_up_to_nyquist():
    f, _ = power_spectrum(np.random.default_rng(0).normal(size=256), 50.0)
    assert f[-1] == pytest.approx(25.0)


def test_power_spectrum_rejects_short():
    with pytest.raises(SignalLengthError):
        power_spectrum(np.array([1.0]), 50.0)


def test_power_spectrum_rejects_bad_rate():
    with pytest.raises(SignalLengthError):
        power_spectrum(np.ones(100), 0.0)


def test_parseval_energy_ratio():
    # The power spectrum's total is the energy of the mean-removed,
    # Hann-windowed signal.
    rng = np.random.default_rng(1)
    sig = rng.normal(size=2048)
    f, p = power_spectrum(sig, 50.0)
    xw = (sig - sig.mean()) * hann(sig.size)
    # Parseval: sum |X_k|^2 (one-sided doubling) == N * sum xw^2
    total = 2 * p.sum() - p[0] - (p[-1] if sig.size % 2 == 0 else 0.0)
    assert total == pytest.approx(sig.size * np.sum(xw**2), rel=1e-9)

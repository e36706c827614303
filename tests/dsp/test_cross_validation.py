"""Cross-validation of the from-scratch DSP against references.

The STFT is checked against :func:`scipy.signal.stft` and the Morlet
CWT against a direct (non-FFT) convolution — independent
implementations catching indexing, normalisation and conjugation bugs.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy import signal as sp_signal

from repro.dsp.stft import stft
from repro.dsp.wavelet import MorletWavelet, cwt_morlet


@pytest.fixture
def chirpy_signal():
    rng = np.random.default_rng(7)
    t = np.arange(0, 60, 0.02)
    x = (
        np.sin(2 * np.pi * 0.4 * t)
        + 0.5 * np.sin(2 * np.pi * 1.3 * t + 1.0)
        + 0.1 * rng.standard_normal(t.size)
    )
    return t, x


def test_stft_matches_scipy_shape_and_peaks(chirpy_signal):
    _, x = chirpy_signal
    rate = 50.0
    segment = 512
    ours = stft(x, rate, segment=segment, hop=segment // 2)
    freqs, times, zxx = sp_signal.stft(
        x,
        fs=rate,
        window="hann",
        nperseg=segment,
        noverlap=segment // 2,
        boundary=None,
        padded=False,
        detrend="constant",
    )
    ref_power = np.abs(zxx) ** 2
    assert ours.power.shape == ref_power.shape
    # Same dominant bin per segment.
    for j in range(ours.power.shape[1]):
        assert np.argmax(ours.power[:, j]) == np.argmax(ref_power[:, j])


def test_stft_relative_spectrum_matches_scipy(chirpy_signal):
    _, x = chirpy_signal
    rate = 50.0
    ours = stft(x, rate, segment=512, hop=256)
    freqs, _, zxx = sp_signal.stft(
        x,
        fs=rate,
        window="hann",
        nperseg=512,
        noverlap=256,
        boundary=None,
        padded=False,
        detrend="constant",
    )
    ref = np.abs(zxx) ** 2
    # Normalised segment spectra agree to the window convention: ours
    # is the symmetric Hann, scipy's default is periodic, which perturbs
    # each bin at the 1e-3 level.
    a = ours.power[:, 0] / ours.power[:, 0].sum()
    b = ref[:, 0] / ref[:, 0].sum()
    assert np.abs(a - b).max() < 2e-3


def test_cwt_matches_direct_convolution():
    rng = np.random.default_rng(3)
    # Long enough that an interior region survives the 7-sigma kernel
    # half-width (~418 samples at 0.8 Hz) on both sides.
    x = rng.standard_normal(1200)
    x -= x.mean()  # cwt_morlet removes the mean; the direct sum does not
    rate = 50.0
    freq = 0.8
    ours = cwt_morlet(x, rate, frequencies_hz=np.array([freq]))

    mother = MorletWavelet()
    s = mother.scale_for_frequency(freq)
    dt = 1.0 / rate
    # 7-sigma truncation: the spectral CWT uses the exact (untruncated)
    # kernel, so the direct sum must be truncated well below the 1e-9
    # comparison tolerance.
    half = int(mother.support_radius(s, n_sigma=7.0) / dt) + 1
    tt = np.arange(-half, half + 1) * dt
    psi = mother.evaluate(tt / s) / np.sqrt(s)
    direct = np.empty(x.size, dtype=complex)
    for i in range(x.size):
        acc = 0.0 + 0.0j
        lo = max(0, i - half)
        hi = min(x.size, i + half + 1)
        for j in range(lo, hi):
            acc += x[j] * np.conj(psi[j - i + half])
        direct[i] = acc * dt
    # Compare away from the edges (boundary treatment differs there).
    inner = slice(half, x.size - half)
    ref_power = np.abs(direct[inner]) ** 2
    err = np.abs(ours.power[0, inner] - ref_power).max()
    assert err < 1e-9 * max(ref_power.max(), 1.0)


def test_cwt_energy_scales_with_window_count():
    # Doubling the signal duration of a stationary tone doubles the
    # total scalogram energy at the tone's scale (linearity sanity).
    rate = 50.0
    t1 = np.arange(0, 40, 1 / rate)
    t2 = np.arange(0, 80, 1 / rate)
    f = np.array([0.5])
    e1 = cwt_morlet(np.sin(2 * np.pi * 0.5 * t1), rate, f).power.sum()
    e2 = cwt_morlet(np.sin(2 * np.pi * 0.5 * t2), rate, f).power.sum()
    assert e2 / e1 == pytest.approx(2.0, rel=0.1)

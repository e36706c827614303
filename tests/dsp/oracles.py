"""Reference CWT the Fourier-domain ``cwt_morlet`` is checked against.

:func:`cwt_power_timedomain` is the original per-scale construction:
sample each scaled Morlet kernel, truncate it, and FFT-convolve it with
the signal.  :func:`timedomain_cwt` routes ``cwt_morlet`` through it, so
a test or bench compares the two engines behind one front end (same
detrending, frequency grid and scale mapping).
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.dsp import wavelet
from repro.dsp.wavelet import MorletWavelet


def cwt_power_timedomain(
    x: np.ndarray, rate_hz: float, scales: tuple[float, ...], w0: float
) -> np.ndarray:
    """Reference |CWT|^2: per-scale sampled kernels convolved via FFT.

    The kernels are truncated at 6.5 sigma (the historical 5 sigma
    floored any comparison at ~2e-6 relative) and the FFT length covers
    the longest kernel without wraparound, so this and the spectral
    path agree to ~1e-9 wherever the kernel support fits inside the
    trace.
    """
    mother = MorletWavelet(w0)
    n = x.size
    dt = 1.0 / rate_hz
    halves = [
        min(int(mother.support_radius(s, n_sigma=6.5) / dt) + 1, n)
        for s in scales
    ]
    length = max(2 * n, n + 2 * max(halves, default=n) + 1)
    nfft = 1 << int(np.ceil(np.log2(length)))
    xf = np.fft.fft(x, nfft)
    power = np.empty((len(scales), n))
    for i, s in enumerate(scales):
        half = halves[i]
        tt = np.arange(-half, half + 1) * dt
        psi = mother.evaluate(tt / s) / math.sqrt(s)
        # Convolution with conj(psi(-t)) == correlation with psi.
        kernel = np.conj(psi[::-1])
        kf = np.fft.fft(kernel, nfft)
        full = np.fft.ifft(xf * kf)[: n + 2 * half]
        coeffs = full[half : half + n] * dt
        power[i] = np.abs(coeffs) ** 2
    return power


def timedomain_cwt(mp: pytest.MonkeyPatch) -> None:
    """Make ``cwt_morlet`` evaluate :func:`cwt_power_timedomain`.

    Takes a ``monkeypatch`` (or ``monkeypatch.context()``) so the swap
    is undone when the test or context ends.
    """
    mp.setattr(wavelet, "_cwt_power_spectral", cwt_power_timedomain)

"""FFT helpers: power spectra of real signals."""

from __future__ import annotations

import numpy as np

from repro.errors import SignalLengthError
from repro.dsp.window import hann


def power_spectrum(
    signal: np.ndarray, rate_hz: float
) -> tuple[np.ndarray, np.ndarray]:
    """One-sided power spectrum of a real signal.

    Returns ``(frequencies_hz, power)`` where ``power`` is |X(f)|^2 of
    the mean-removed, Hann-windowed signal — the quantity the paper
    plots as "Z-Power Spectrum" in Fig. 6.
    """
    x = np.asarray(signal, dtype=float)
    if x.size < 2:
        raise SignalLengthError(
            f"power spectrum needs >= 2 samples, got {x.size}"
        )
    if rate_hz <= 0:
        raise SignalLengthError(f"rate_hz must be positive, got {rate_hz}")
    x = x - x.mean()
    spec = np.fft.rfft(x * hann(x.size))
    freqs = np.fft.rfftfreq(x.size, d=1.0 / rate_hz)
    return freqs, np.abs(spec) ** 2

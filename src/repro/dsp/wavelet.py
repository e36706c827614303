"""Morlet continuous wavelet transform (paper Sec. III-C.2, eq. 3).

The paper resolves the STFT's fixed time/frequency trade-off with a
wavelet transform built on the Morlet mother wavelet and observes that
"the ship waves mainly focus on the low frequency spectrum" (Fig. 7).

SciPy removed ``scipy.signal.cwt`` in 1.15, so the transform here is
implemented from scratch: the analytic Morlet wavelet

``psi(t) = pi^{-1/4} exp(-t^2 / 2) exp(i w0 t)``

has the closed-form Fourier transform

``psihat(w) = pi^{-1/4} sqrt(2 pi) exp(-(w - w0)^2 / 2)``

so the whole transform is one signal FFT, a vectorised
(scales x nfft) multiply against the cached filter bank
``sqrt(s) psihat(s w)``, and a single batched inverse FFT.  The
per-scale time-domain kernel construction it replaced is the test
oracle in ``tests/dsp/oracles.py``.  The centre frequency of the scaled
wavelet is ``f = w0 / (2 pi s)`` for scale ``s`` (in seconds), which
:meth:`MorletWavelet.scale_for_frequency` inverts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.constants import SAMPLE_RATE_HZ
from repro.errors import ConfigurationError, SignalLengthError


@dataclass(frozen=True)
class MorletWavelet:
    """The Morlet mother wavelet with centre (angular) frequency ``w0``.

    ``w0 >= 5`` keeps the non-admissible DC leakage negligible; the
    classic default is 6.
    """

    w0: float = 6.0

    def __post_init__(self) -> None:
        if self.w0 < 5.0:
            raise ConfigurationError(
                f"Morlet w0 below 5 is not admissible in the simple form, got {self.w0}"
            )

    def evaluate(self, t: np.ndarray) -> np.ndarray:
        """Mother wavelet values psi(t) (complex)."""
        t = np.asarray(t, dtype=float)
        norm = math.pi**-0.25
        return norm * np.exp(-0.5 * t * t) * np.exp(1j * self.w0 * t)

    def support_radius(self, scale: float, n_sigma: float = 5.0) -> float:
        """Half-width [s] beyond which the scaled wavelet is negligible."""
        return n_sigma * scale

    def scale_for_frequency(self, frequency_hz: float) -> float:
        """Scale ``s`` [s] whose centre frequency is ``frequency_hz``."""
        if frequency_hz <= 0:
            raise ConfigurationError(
                f"frequency must be positive, got {frequency_hz}"
            )
        return self.w0 / (2.0 * math.pi * frequency_hz)


@dataclass(frozen=True)
class Scalogram:
    """|CWT|^2 on a (frequency, time) grid — the paper's Fig. 7 surface."""

    frequencies_hz: np.ndarray
    times_s: np.ndarray
    power: np.ndarray

    def __post_init__(self) -> None:
        nf, nt = self.power.shape
        if len(self.frequencies_hz) != nf or len(self.times_s) != nt:
            raise ConfigurationError("scalogram axes do not match power shape")

    def dominant_frequency_at(self, j: int) -> float:
        """Frequency with the most power in time column ``j``."""
        return float(self.frequencies_hz[int(np.argmax(self.power[:, j]))])


def _next_fast_len(target: int) -> int:
    """Smallest 5-smooth integer >= ``target`` (a fast pocketfft size)."""
    if target <= 16:
        return max(target, 1)
    best = 1 << (target - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            quotient = -(-target // p35)
            p2 = 1 << (quotient - 1).bit_length()
            best = min(best, p2 * p35)
            p35 *= 3
        p5 *= 5
    return best


@lru_cache(maxsize=32)
def _dft_angular_frequencies(nfft: int, rate_hz: float) -> np.ndarray:
    """Angular-frequency grid of the length-``nfft`` DFT [rad/s]."""
    return 2.0 * math.pi * np.fft.fftfreq(nfft, d=1.0 / rate_hz)


@lru_cache(maxsize=32)
def _morlet_filter_bank(
    nfft: int, rate_hz: float, w0: float, scales: tuple[float, ...]
) -> np.ndarray:
    """Fourier-domain Morlet filters ``sqrt(s) psihat(s w)``, (scales, nfft).

    ``psihat`` is the closed-form transform of the analytic Morlet, a
    Gaussian centred on ``w0 / s``; evaluating it directly replaces a
    per-scale sample-truncate-FFT kernel construction.  Keyed on
    (nfft, rate, w0, scales) so sweeps that transform many
    equal-length signals pay the construction cost once.
    """
    omega = _dft_angular_frequencies(nfft, rate_hz)
    s = np.asarray(scales, dtype=float)
    arg = s[:, None] * omega[None, :] - w0
    norm = math.pi**-0.25 * math.sqrt(2.0 * math.pi)
    return norm * np.sqrt(s)[:, None] * np.exp(-0.5 * arg * arg)


def _cwt_power_spectral(
    x: np.ndarray, rate_hz: float, scales: tuple[float, ...], w0: float
) -> np.ndarray:
    """|CWT|^2 via the closed-form Fourier-domain Morlet.

    ``W(s, b) = ifft(xhat(w) conj(sqrt(s) psihat(s w)))`` — the Riemann
    ``dt`` of the correlation integral cancels against the ``1/dt``
    relating the DFT of samples to the continuous transform, so no
    explicit ``dt`` factor appears.  The filter is real, making the
    conjugation a no-op.

    The zero-padding only needs to cover the widest wavelet's effective
    support (6.5 sigma keeps the circular-wraparound leakage below
    1e-9 of the peak), so the FFT length is the next fast (5-smooth)
    size past ``n + pad`` rather than a power of two.
    """
    n = x.size
    pad = int(6.5 * max(scales) * rate_hz) + 1
    nfft = _next_fast_len(n + pad)
    xf = np.fft.fft(x, nfft)
    bank = _morlet_filter_bank(nfft, float(rate_hz), float(w0), scales)
    coeffs = np.fft.ifft(xf[None, :] * bank, axis=1)[:, :n]
    return coeffs.real**2 + coeffs.imag**2


def cwt_morlet(
    signal: np.ndarray,
    rate_hz: float = SAMPLE_RATE_HZ,
    frequencies_hz: np.ndarray | None = None,
    w0: float = 6.0,
) -> Scalogram:
    """Continuous wavelet transform with a Morlet mother wavelet.

    The signal's mean is removed first.  Each requested analysis
    frequency maps to a scale; the transform correlates the signal with
    the scaled wavelet normalised by ``1/sqrt(s)``, yielding the
    standard L2-normalised CWT, and returns |coefficients|^2 as a
    :class:`Scalogram`.
    """
    x = np.asarray(signal, dtype=float)
    if x.size < 8:
        raise SignalLengthError(f"cwt needs >= 8 samples, got {x.size}")
    if rate_hz <= 0:
        raise ConfigurationError(f"rate_hz must be positive, got {rate_hz}")
    x = x - x.mean()
    mother = MorletWavelet(w0)
    if frequencies_hz is None:
        # Default: logarithmic grid from ~1/20 of the trace up to Nyquist/2.
        f_min = max(rate_hz / x.size * 4.0, 0.02)
        f_max = rate_hz / 4.0
        frequencies_hz = np.geomspace(f_min, f_max, 48)
    freqs = np.asarray(frequencies_hz, dtype=float)
    if np.any(freqs <= 0):
        raise ConfigurationError("analysis frequencies must be positive")

    scales = tuple(mother.scale_for_frequency(float(f)) for f in freqs)
    power = _cwt_power_spectral(x, rate_hz, scales, w0)
    times = np.arange(x.size) / rate_hz
    return Scalogram(frequencies_hz=freqs, times_s=times, power=power)

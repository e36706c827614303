"""Short-Time Fourier Transform (paper Sec. III-C.1).

The paper divides the 50 Hz z-accelerometer stream into 2048-sample
segments (40.96 s) and Fourier-transforms each, observing that segments
containing only ocean waves show "a high, single peak concentration"
while segments containing ship waves show "multiple peaks and wide
crests without distinct peaks" (Fig. 6).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.constants import SAMPLE_RATE_HZ, STFT_SEGMENT_SAMPLES
from repro.errors import ConfigurationError, SignalLengthError
from repro.dsp.window import hann


@dataclass(frozen=True)
class Spectrogram:
    """STFT magnitude-squared output.

    ``power[i, j]`` is the power at ``frequencies_hz[i]`` within the
    segment centred at ``times_s[j]``.
    """

    frequencies_hz: np.ndarray
    times_s: np.ndarray
    power: np.ndarray

    def __post_init__(self) -> None:
        nf, nt = self.power.shape
        if len(self.frequencies_hz) != nf or len(self.times_s) != nt:
            raise ConfigurationError("spectrogram axes do not match power shape")


def stft_segments(
    signal: np.ndarray, segment: int, hop: int
) -> np.ndarray:
    """Slice ``signal`` into overlapping segments (rows).

    Segments that would run past the end are dropped, matching the
    paper's fixed 2048-point framing.
    """
    x = np.asarray(signal, dtype=float)
    if segment < 2:
        raise ConfigurationError(f"segment must be >= 2, got {segment}")
    if hop < 1:
        raise ConfigurationError(f"hop must be >= 1, got {hop}")
    if x.size < segment:
        raise SignalLengthError(
            f"signal ({x.size} samples) shorter than one segment ({segment})"
        )
    n_seg = 1 + (x.size - segment) // hop
    idx = np.arange(segment)[None, :] + hop * np.arange(n_seg)[:, None]
    return x[idx]


def stft(
    signal: np.ndarray,
    rate_hz: float = SAMPLE_RATE_HZ,
    segment: int = STFT_SEGMENT_SAMPLES,
    hop: int | None = None,
) -> Spectrogram:
    """Hann-windowed FFT spectrogram of a real signal.

    Parameters follow the paper's defaults: 50 Hz input, 2048-point
    segments.  ``hop`` defaults to half a segment (50 % overlap).  Each
    segment's mean is removed so the 1 g gravity offset does not bury
    the wave band in spectral leakage.
    """
    if rate_hz <= 0:
        raise ConfigurationError(f"rate_hz must be positive, got {rate_hz}")
    if hop is None:
        hop = segment // 2
    frames = stft_segments(signal, segment, hop)
    frames = frames - frames.mean(axis=1, keepdims=True)
    spec = np.fft.rfft(frames * hann(segment)[None, :], axis=1)
    power = (np.abs(spec) ** 2).T
    freqs = np.fft.rfftfreq(segment, d=1.0 / rate_hz)
    centers = (np.arange(frames.shape[0]) * hop + segment / 2.0) / rate_hz
    return Spectrogram(frequencies_hz=freqs, times_s=centers, power=power)

"""Signal-processing toolbox (paper Sec. III-C).

Implements the two transforms the paper uses to separate ship waves
from ocean waves — the Short-Time Fourier Transform and the Morlet
continuous wavelet transform — plus the 1 Hz low-pass preprocessing of
Sec. IV-B and the spectral features that quantify "single peak" versus
"multiple peaks and wide crests".
"""

from repro.dsp.features import (
    SpectralFeatures,
    band_energy,
    count_spectral_peaks,
    peak_width_hz,
    smooth_spectrum,
    spectral_entropy,
    summarize_spectrum,
)
from repro.dsp.fft_utils import power_spectrum
from repro.dsp.filters import butter_lowpass, moving_average
from repro.dsp.stft import Spectrogram, stft, stft_segments
from repro.dsp.wavelet import MorletWavelet, Scalogram, cwt_morlet

__all__ = [
    "MorletWavelet",
    "Scalogram",
    "SpectralFeatures",
    "Spectrogram",
    "band_energy",
    "butter_lowpass",
    "count_spectral_peaks",
    "cwt_morlet",
    "moving_average",
    "peak_width_hz",
    "power_spectrum",
    "smooth_spectrum",
    "spectral_entropy",
    "stft",
    "stft_segments",
    "summarize_spectrum",
]

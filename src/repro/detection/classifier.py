"""Event classification at the cluster level (paper Sec. IV-A).

"The cluster-level classification deals with more complicated tasks,
such as CSP or regional data fusion."  The paper stops at detection;
this module supplies the natural classification stage its architecture
reserves space for: given the raw z-axis segment around an alarm,
decide *what kind* of disturbance tripped the threshold —

- ``SHIP_WAKE``   — an enveloped, oscillatory packet in the wake band
  (0.15–0.8 Hz for 6–20 knot vessels), lasting a few seconds;
- ``IMPULSE``     — a bird strike / fish bump: sub-second, broadband;
- ``WIND_CHOP``   — a gust: several seconds of elevated energy at
  chop frequencies (above the wake band);
- ``AMBIENT``     — a wave-group surge: energy at the sea's own peak
  with no distinct extra band.

The decision is a transparent score over spectral features (band-energy
ratios, burst duration, spectral entropy) rather than a learned model:
every score term is inspectable, which is what one wants on a mote.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from repro.constants import SAMPLE_RATE_HZ
from repro.dsp.fft_utils import power_spectrum
from repro.dsp.features import band_energy, spectral_entropy
from repro.errors import SignalLengthError

#: Frequency bands [Hz] of the feature extractor: the wake band, chop
#: above it, and the ambient sea's own peak.
WAKE_BAND_HZ = (0.15, 0.8)
CHOP_BAND_HZ = (0.9, 3.0)
SEA_BAND_HZ = (0.3, 0.7)
#: Envelope threshold (x RMS) that defines the burst extent.
BURST_REL_LEVEL = 1.5
#: Burst durations [s] a wake packet spans.
WAKE_MIN_S = 1.0
WAKE_MAX_S = 8.0


class EventClass(Enum):
    """Recognised disturbance classes."""

    SHIP_WAKE = "ship-wake"
    IMPULSE = "impulse"
    WIND_CHOP = "wind-chop"
    AMBIENT = "ambient"


@dataclass(frozen=True)
class EventFeatures:
    """Inspectable features of one alarm segment."""

    wake_band_ratio: float
    chop_band_ratio: float
    sea_band_ratio: float
    burst_duration_s: float
    entropy_nats: float
    peak_to_rms: float


@dataclass(frozen=True)
class Classification:
    """One classification verdict with its evidence."""

    label: EventClass
    scores: dict[str, float]
    features: EventFeatures


class EventClassifier:
    """Classify gravity-removed 50 Hz z-segments around alarms."""

    def extract_features(self, segment: np.ndarray) -> EventFeatures:
        """Feature vector for one zero-mean segment."""
        x = np.asarray(segment, dtype=float)
        if x.size < 64:
            raise SignalLengthError(
                f"classification needs >= 64 samples, got {x.size}"
            )
        x = x - x.mean()
        freqs, power = power_spectrum(x, SAMPLE_RATE_HZ)
        total = float(power[freqs > 0.05].sum()) or 1.0
        wake = band_energy(freqs, power, *WAKE_BAND_HZ) / total
        chop = band_energy(freqs, power, *CHOP_BAND_HZ) / total
        sea = band_energy(freqs, power, *SEA_BAND_HZ) / total
        rms = float(x.std()) or 1e-12
        envelope = np.abs(x)
        # Burst extent: where the smoothed envelope exceeds half its own
        # peak.  Smoothing (0.5 s) bridges the zero crossings of an
        # oscillatory packet; the half-peak reference makes the measure
        # insensitive to the ambient floor (unlike an RMS multiple).
        from repro.dsp.filters import moving_average

        smooth = moving_average(envelope, max(int(0.5 * SAMPLE_RATE_HZ), 1))
        half_peak = 0.5 * float(smooth.max())
        floor = BURST_REL_LEVEL * rms
        above = smooth > max(half_peak, floor)
        burst_duration = float(np.count_nonzero(above)) / SAMPLE_RATE_HZ
        return EventFeatures(
            wake_band_ratio=wake,
            chop_band_ratio=chop,
            sea_band_ratio=sea,
            burst_duration_s=burst_duration,
            entropy_nats=spectral_entropy(power),
            peak_to_rms=float(envelope.max()) / rms,
        )

    def classify(self, segment: np.ndarray) -> Classification:
        """Score the four classes and return the winner."""
        f = self.extract_features(segment)

        def clamp01(v: float) -> float:
            return min(max(v, 0.0), 1.0)

        duration_fits_wake = clamp01(
            1.0
            - abs(f.burst_duration_s - 0.5 * (WAKE_MIN_S + WAKE_MAX_S))
            / WAKE_MAX_S
        )
        # An impulse is spectrally flat across the wake and chop bands
        # (a sub-second pulse excites both equally) with an extreme
        # peak; an oscillatory packet concentrates in one band.
        band_sum = f.wake_band_ratio + f.chop_band_ratio
        broadband = (
            1.0 - abs(f.wake_band_ratio - f.chop_band_ratio) / band_sum
            if band_sum > 0
            else 0.0
        )
        scores = {
            EventClass.SHIP_WAKE.value: f.wake_band_ratio
            * duration_fits_wake
            * clamp01((f.peak_to_rms - 1.5) / 3.0),
            EventClass.IMPULSE.value: broadband
            * clamp01((f.peak_to_rms - 5.0) / 4.0),
            EventClass.WIND_CHOP.value: f.chop_band_ratio
            * clamp01(f.burst_duration_s / 3.0),
            EventClass.AMBIENT.value: f.sea_band_ratio
            * clamp01(1.0 - (f.peak_to_rms - 2.5) / 3.0)
            * 0.6,
        }
        label = max(scores, key=lambda k: scores[k])
        return Classification(
            label=EventClass(label), scores=scores, features=f
        )

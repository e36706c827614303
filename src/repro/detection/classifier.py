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
from repro.errors import ConfigurationError, SignalLengthError


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


@dataclass(frozen=True)
class ClassifierConfig:
    """Frequency bands and timing thresholds of the feature extractor."""

    rate_hz: float = SAMPLE_RATE_HZ
    wake_band_hz: tuple[float, float] = (0.15, 0.8)
    chop_band_hz: tuple[float, float] = (0.9, 3.0)
    sea_band_hz: tuple[float, float] = (0.3, 0.7)
    #: Envelope threshold (x RMS) that defines the burst extent.
    burst_rel_level: float = 1.5
    impulse_max_s: float = 0.8
    wake_min_s: float = 1.0
    wake_max_s: float = 8.0

    def __post_init__(self) -> None:
        if self.rate_hz <= 0:
            raise ConfigurationError("rate_hz must be positive")
        for name in ("wake_band_hz", "chop_band_hz", "sea_band_hz"):
            lo, hi = getattr(self, name)
            if not 0 <= lo < hi:
                raise ConfigurationError(f"invalid band {name}: ({lo}, {hi})")
        if self.burst_rel_level <= 0:
            raise ConfigurationError("burst_rel_level must be positive")


class EventClassifier:
    """Classify gravity-removed z-segments around alarms."""

    def __init__(self, config: ClassifierConfig | None = None) -> None:
        self.config = config if config is not None else ClassifierConfig()

    # ------------------------------------------------------------------
    def extract_features(self, segment: np.ndarray) -> EventFeatures:
        """Feature vector for one zero-mean segment."""
        x = np.asarray(segment, dtype=float)
        if x.size < 64:
            raise SignalLengthError(
                f"classification needs >= 64 samples, got {x.size}"
            )
        cfg = self.config
        x = x - x.mean()
        freqs, power = power_spectrum(x, cfg.rate_hz)
        total = float(power[freqs > 0.05].sum()) or 1.0
        wake = band_energy(freqs, power, *cfg.wake_band_hz) / total
        chop = band_energy(freqs, power, *cfg.chop_band_hz) / total
        sea = band_energy(freqs, power, *cfg.sea_band_hz) / total
        rms = float(x.std()) or 1e-12
        envelope = np.abs(x)
        # Burst extent: where the smoothed envelope exceeds half its own
        # peak.  Smoothing (0.5 s) bridges the zero crossings of an
        # oscillatory packet; the half-peak reference makes the measure
        # insensitive to the ambient floor (unlike an RMS multiple).
        from repro.dsp.filters import moving_average

        smooth = moving_average(envelope, max(int(0.5 * cfg.rate_hz), 1))
        half_peak = 0.5 * float(smooth.max())
        floor = cfg.burst_rel_level * rms
        above = smooth > max(half_peak, floor)
        burst_duration = float(np.count_nonzero(above)) / cfg.rate_hz
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
        cfg = self.config

        def clamp01(v: float) -> float:
            return min(max(v, 0.0), 1.0)

        duration_fits_wake = clamp01(
            1.0
            - abs(f.burst_duration_s - 0.5 * (cfg.wake_min_s + cfg.wake_max_s))
            / (cfg.wake_max_s)
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

"""Tests for the cluster-level event classifier."""

from __future__ import annotations

import numpy as np
import pytest

from repro.detection.classifier import EventClass, EventClassifier
from repro.errors import SignalLengthError
from repro.physics.disturbance import FishBump, WindGust
from repro.physics.wake_train import WakeTrain

RATE = 50.0


def _ambient(rng, duration=20.0, peak_hz=0.45, rms=40.0):
    """Narrowband wave-group-like ambient, zero mean (counts)."""
    t = np.arange(0, duration, 1 / RATE)
    x = np.zeros_like(t)
    for k in range(8):
        f = peak_hz * (1.0 + 0.15 * rng.uniform(-1, 1))
        x += rng.uniform(0.5, 1.0) * np.sin(
            2 * np.pi * f * t + rng.uniform(0, 2 * np.pi)
        )
    return x / x.std() * rms


@pytest.fixture
def classifier():
    return EventClassifier()


@pytest.fixture
def rng():
    return np.random.default_rng(3)


def _with_wake(rng):
    t = np.arange(0, 20.0, 1 / RATE)
    base = _ambient(rng)
    train = WakeTrain(
        arrival_time=8.0, amplitude=0.25, period=2.7, duration=2.6
    )
    wake_counts = train.vertical_acceleration(t) / 9.80665 * 1024.0
    return base + wake_counts


def _with_impulse(rng):
    t = np.arange(0, 20.0, 1 / RATE)
    bump = FishBump(time=10.0, peak_accel=4.0)
    return _ambient(rng) + bump.vertical_acceleration(t) / 9.80665 * 1024.0


def _with_chop(rng):
    t = np.arange(0, 20.0, 1 / RATE)
    gust = WindGust(
        start=6.0, duration=8.0, rms_accel=2.0, band_hz=(1.0, 3.0), seed=5
    )
    return _ambient(rng, rms=25.0) + gust.vertical_acceleration(t) / 9.80665 * 1024.0


class TestClassification:
    def test_wake_recognised(self, classifier, rng):
        verdict = classifier.classify(_with_wake(rng))
        assert verdict.label == EventClass.SHIP_WAKE

    def test_impulse_recognised(self, classifier, rng):
        verdict = classifier.classify(_with_impulse(rng))
        assert verdict.label == EventClass.IMPULSE

    def test_chop_recognised(self, classifier, rng):
        verdict = classifier.classify(_with_chop(rng))
        assert verdict.label == EventClass.WIND_CHOP

    def test_ambient_recognised(self, classifier, rng):
        verdict = classifier.classify(_ambient(rng))
        assert verdict.label == EventClass.AMBIENT

    def test_scores_cover_all_classes(self, classifier, rng):
        verdict = classifier.classify(_with_wake(rng))
        assert set(verdict.scores) == {c.value for c in EventClass}

    def test_accuracy_over_ensemble(self, classifier):
        """Majority of a mixed ensemble classified correctly."""
        correct = 0
        total = 0
        for seed in range(6):
            r = np.random.default_rng(seed)
            cases = [
                (_with_wake(r), EventClass.SHIP_WAKE),
                (_with_impulse(r), EventClass.IMPULSE),
                (_with_chop(r), EventClass.WIND_CHOP),
                (_ambient(r), EventClass.AMBIENT),
            ]
            for segment, expected in cases:
                total += 1
                if classifier.classify(segment).label == expected:
                    correct += 1
        assert correct / total > 0.7


class TestFeatures:
    def test_wake_band_dominates_for_wake(self, classifier, rng):
        f = classifier.extract_features(_with_wake(rng))
        assert f.wake_band_ratio > f.chop_band_ratio

    def test_chop_band_dominates_for_gust(self, classifier, rng):
        f = classifier.extract_features(_with_chop(rng))
        assert f.chop_band_ratio > 0.3

    def test_impulse_has_high_peak_to_rms(self, classifier, rng):
        f_impulse = classifier.extract_features(_with_impulse(rng))
        f_ambient = classifier.extract_features(_ambient(rng))
        assert f_impulse.peak_to_rms > f_ambient.peak_to_rms

    def test_burst_duration_short_for_pure_impulse(self, classifier):
        # Without ambient masking, the smoothed envelope of a 0.2 s
        # pulse spans well under a second.
        t = np.arange(0, 20.0, 1 / RATE)
        bump = FishBump(time=10.0, peak_accel=4.0)
        x = bump.vertical_acceleration(t) / 9.80665 * 1024.0
        x += np.random.default_rng(0).normal(0, 2.0, t.size)
        f = classifier.extract_features(x)
        assert f.burst_duration_s < 1.0

    def test_short_segment_rejected(self, classifier):
        with pytest.raises(SignalLengthError):
            classifier.extract_features(np.ones(10))

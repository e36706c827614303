"""Tests for the sensor faults applied to recorded counts."""

from __future__ import annotations

import numpy as np
import pytest

from repro.faults.plan import FaultStats, SensorFault, SensorFaultKind
from repro.faults.sensor import corrupt_counts
from repro.rng import derive_rng
from repro.sensors.accelerometer import Accelerometer, AccelerometerSpec

RATE = 50.0


def _device():
    """A noiseless, bias-free device so counts are predictable."""
    return Accelerometer(
        AccelerometerSpec(noise_rms_counts=0.0, bias_rms_counts=0.0), seed=0
    )


def _corrupt(faults, sig, stats=None):
    """The device's z counts of ``sig`` with ``faults`` applied."""
    device = _device()
    return corrupt_counts(
        device.read_axis(sig, 2),
        faults,
        t0=0.0,
        rate_hz=RATE,
        max_counts=device.spec.max_counts,
        rng=derive_rng(0, "test-sensor"),
        stats=stats if stats is not None else FaultStats(),
    )


def _signal(duration_s=10.0, value=0.0):
    n = int(duration_s * RATE)
    return np.full(n, value)


class TestIdentityPaths:
    def test_no_faults_returns_inner_counts(self):
        counts = _device().read_axis(_signal(value=1.0), 2)
        out = corrupt_counts(
            counts,
            [],
            t0=0.0,
            rate_hz=RATE,
            max_counts=_device().spec.max_counts,
            rng=derive_rng(0, "test-sensor"),
            stats=FaultStats(),
        )
        assert out is counts

    def test_fault_outside_record_window_is_identity(self):
        fault = SensorFault(
            0, SensorFaultKind.STUCK_AT, start_s=100.0, magnitude=500.0
        )
        sig = _signal(duration_s=10.0, value=1.0)
        np.testing.assert_array_equal(
            _corrupt([fault], sig), _device().read_axis(sig, 2)
        )


class TestFaultKinds:
    def test_stuck_at_freezes_window(self):
        fault = SensorFault(
            0,
            SensorFaultKind.STUCK_AT,
            start_s=2.0,
            duration_s=3.0,
            magnitude=333.0,
        )
        out = _corrupt([fault], _signal())
        lo, hi = int(2.0 * RATE), int(5.0 * RATE)
        assert np.all(out[lo:hi] == 333)
        assert np.all(out[:lo] == 0)
        assert np.all(out[hi:] == 0)

    def test_drift_ramps_linearly(self):
        fault = SensorFault(
            0,
            SensorFaultKind.DRIFT,
            start_s=0.0,
            duration_s=10.0,
            magnitude=10.0,  # counts per second
        )
        out = _corrupt([fault], _signal())
        # 5 s into the fault the ramp has added ~50 counts.
        i = int(5.0 * RATE)
        assert out[i] == pytest.approx(50.0, abs=1.0)
        assert out[-1] > out[i] > out[0]

    def test_saturation_clips_to_fraction_of_full_scale(self):
        device = _device()
        limit = device.spec.max_counts
        fault = SensorFault(
            0, SensorFaultKind.SATURATION, start_s=0.0, magnitude=0.1
        )
        # A signal near full scale: 1.5 g upward.
        sig = _signal(value=1.5 * 9.80665)
        out = _corrupt([fault], sig)
        assert np.all(np.abs(out) <= int(round(0.1 * limit)) + 1)

    def test_spike_rate_roughly_matches(self):
        fault = SensorFault(
            0,
            SensorFaultKind.SPIKE,
            start_s=0.0,
            duration_s=100.0,
            magnitude=200.0,
            rate_hz=2.0,
        )
        out = _corrupt([fault], _signal(duration_s=100.0))
        n_spikes = int(np.sum(np.abs(out) > 100))
        # ~200 expected over 100 s at 2 Hz; allow wide Bernoulli slack.
        assert 120 <= n_spikes <= 280

    def test_dropout_zeroes_fraction(self):
        fault = SensorFault(
            0,
            SensorFaultKind.DROPOUT,
            start_s=0.0,
            duration_s=100.0,
            magnitude=0.5,
        )
        sig = _signal(duration_s=100.0, value=1.0)
        healthy = _device().read_axis(sig, 2)
        assert np.all(healthy != 0)
        out = _corrupt([fault], sig)
        frac = np.mean(out == 0)
        assert 0.4 <= frac <= 0.6

    def test_output_clipped_to_device_range(self):
        fault = SensorFault(
            0, SensorFaultKind.STUCK_AT, start_s=0.0, magnitude=1e9
        )
        out = _corrupt([fault], _signal())
        assert np.max(out) == _device().spec.max_counts


class TestStatsAndDeterminism:
    def test_activation_counted_once_samples_counted_all(self):
        stats = FaultStats()
        fault = SensorFault(
            0,
            SensorFaultKind.STUCK_AT,
            start_s=0.0,
            duration_s=2.0,
            magnitude=100.0,
        )
        _corrupt([fault], _signal(duration_s=4.0), stats=stats)
        assert stats.sensor_faults_injected == 1
        assert stats.sensor_samples_faulted == int(2.0 * RATE)

    def test_same_rng_stream_replays_identically(self):
        fault = SensorFault(
            0,
            SensorFaultKind.SPIKE,
            start_s=0.0,
            duration_s=50.0,
            magnitude=150.0,
            rate_hz=1.0,
        )
        sig = _signal(duration_s=50.0)
        out1 = _corrupt([fault], sig)
        out2 = _corrupt([fault], sig)
        np.testing.assert_array_equal(out1, out2)

"""Tests for the detection-path filters."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError, SignalLengthError
from repro.dsp.filters import butter_lowpass, butter_sos, moving_average


def _two_tone(rate=50.0, dur=60.0):
    t = np.arange(0, dur, 1 / rate)
    return t, np.sin(2 * np.pi * 0.4 * t) + np.sin(2 * np.pi * 5.0 * t)


class TestButterworth:
    def test_passband_preserved(self):
        t, sig = _two_tone()
        out = butter_lowpass(sig, 1.0, 50.0)
        spec = np.abs(np.fft.rfft(out))
        f = np.fft.rfftfreq(out.size, 0.02)
        i04 = np.argmin(np.abs(f - 0.4))
        i5 = np.argmin(np.abs(f - 5.0))
        assert spec[i04] > 100 * spec[i5]

    def test_zero_phase_preserves_timing(self):
        rate = 50.0
        t = np.arange(0, 60, 1 / rate)
        sig = np.exp(-0.5 * ((t - 30) / 2.0) ** 2)
        out = butter_lowpass(sig, 1.0, rate)
        assert abs(t[np.argmax(out)] - 30.0) < 0.1

    def test_rejects_short_signal(self):
        with pytest.raises(SignalLengthError):
            butter_lowpass(np.ones(5), 1.0, 50.0)
        # The order-4 filter's forward-backward pass pads 15 samples at
        # each end and needs strictly more samples than that.
        with pytest.raises(SignalLengthError):
            butter_lowpass(np.ones(15), 1.0, 50.0)
        assert butter_lowpass(np.ones(16), 1.0, 50.0).shape == (16,)

    def test_filters_rows_along_last_axis(self):
        t, sig = _two_tone()
        rows = np.stack([sig, -sig, 2 * sig])
        out = butter_lowpass(rows, 1.0, 50.0)
        for row, want in zip(out, rows):
            assert np.array_equal(row, butter_lowpass(want, 1.0, 50.0))
        # The length guard reads the last axis, not the total size.
        with pytest.raises(SignalLengthError):
            butter_lowpass(np.ones((100, 15)), 1.0, 50.0)

    def test_rejects_bad_cutoff(self):
        with pytest.raises(ConfigurationError):
            butter_lowpass(np.ones(100), 30.0, 50.0)
        with pytest.raises(ConfigurationError):
            butter_lowpass(np.ones(100), 0.0, 50.0)
        # The Nyquist check runs on every call, designed before or not.
        butter_sos(1.0, 50.0)
        with pytest.raises(ConfigurationError):
            butter_sos(1.0, 2.0)

    def test_design_is_shared_but_each_copy_is_the_callers(self):
        first = butter_sos(1.0, 50.0)
        want = first.copy()
        # sosfilt needs a writeable design, so every call returns its
        # own; writing into one leaves the next call's unchanged.
        assert first.flags.writeable
        first[:] = 0.0
        assert np.array_equal(butter_sos(1.0, 50.0), want)
        assert butter_sos(1.0, 50.0) is not butter_sos(1.0, 50.0)


class TestMovingAverage:
    def test_constant_preserved(self):
        out = moving_average(np.full(100, 5.0), 10)
        assert np.allclose(out, 5.0)

    def test_length_preserved(self):
        assert moving_average(np.arange(37.0), 8).shape == (37,)

    def test_startup_uses_partial_history(self):
        out = moving_average(np.arange(10.0), 4)
        assert out[0] == 0.0
        assert out[1] == pytest.approx(0.5)
        assert out[3] == pytest.approx(1.5)

    def test_steady_state_window_mean(self):
        x = np.arange(20.0)
        out = moving_average(x, 4)
        assert out[10] == pytest.approx(np.mean(x[7:11]))

    def test_attenuates_fast_oscillation(self):
        t = np.arange(0, 20, 0.02)
        fast = np.sin(2 * np.pi * 10.0 * t)
        out = moving_average(fast, 50)
        assert np.abs(out[100:]).max() < 0.05

    def test_width_one_identity(self):
        x = np.random.default_rng(0).normal(size=50)
        assert np.allclose(moving_average(x, 1), x)

    def test_width_longer_than_signal(self):
        out = moving_average(np.arange(4.0), 10)
        assert out[-1] == pytest.approx(1.5)

    def test_empty_signal(self):
        assert moving_average(np.array([]), 5).size == 0

    def test_rejects_bad_width(self):
        with pytest.raises(ConfigurationError):
            moving_average(np.ones(10), 0)

"""Tests for the short-time Fourier transform."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError, SignalLengthError
from repro.dsp.stft import Spectrogram, stft, stft_segments


def test_segments_shape_and_content():
    x = np.arange(10.0)
    frames = stft_segments(x, segment=4, hop=2)
    assert frames.shape == (4, 4)
    assert np.array_equal(frames[0], [0, 1, 2, 3])
    assert np.array_equal(frames[1], [2, 3, 4, 5])


def test_segments_drop_tail():
    frames = stft_segments(np.arange(11.0), segment=4, hop=4)
    assert frames.shape == (2, 4)  # last 3 samples dropped


def test_segments_rejects_short_signal():
    with pytest.raises(SignalLengthError):
        stft_segments(np.arange(3.0), segment=4, hop=2)


def test_segments_rejects_bad_params():
    with pytest.raises(ConfigurationError):
        stft_segments(np.arange(10.0), segment=1, hop=2)
    with pytest.raises(ConfigurationError):
        stft_segments(np.arange(10.0), segment=4, hop=0)


def test_stft_tone_localisation():
    rate = 50.0
    t = np.arange(0, 120, 1 / rate)
    sig = np.where(t < 60, np.sin(2 * np.pi * 0.4 * t), np.sin(2 * np.pi * 2.0 * t))
    sg = stft(sig, rate, segment=512, hop=256)
    early = sg.power[:, 0]
    late = sg.power[:, -1]
    assert abs(sg.frequencies_hz[np.argmax(early)] - 0.4) < 0.1
    assert abs(sg.frequencies_hz[np.argmax(late)] - 2.0) < 0.1


def test_stft_paper_segment_duration():
    rate = 50.0
    sig = np.sin(np.linspace(0, 100, 4096))
    sg = stft(sig, rate, segment=2048, hop=1024)
    # Segment centres advance by hop / rate.
    assert sg.times_s[1] - sg.times_s[0] == pytest.approx(1024 / 50.0)


def test_stft_detrend_removes_gravity_bias():
    rate = 50.0
    sig = 1024.0 + np.sin(2 * np.pi * 0.5 * np.arange(0, 60, 1 / rate))
    sg = stft(sig, rate, segment=1024, hop=512)
    assert sg.frequencies_hz[np.argmax(sg.power[:, 0])] > 0.3


def test_stft_shape_invariants():
    sg = stft(np.random.default_rng(0).normal(size=5000), 50.0, segment=1024)
    n_segments = 1 + (5000 - 1024) // 512
    assert sg.power.shape == (513, n_segments)
    assert len(sg.times_s) == n_segments


def test_spectrogram_axis_validation():
    with pytest.raises(ConfigurationError):
        Spectrogram(
            frequencies_hz=np.arange(3),
            times_s=np.arange(2),
            power=np.ones((4, 2)),
        )

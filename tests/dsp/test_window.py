"""Tests for the Hann window."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.dsp.window import hann


def test_hann_endpoints_zero():
    w = hann(64)
    assert w[0] == pytest.approx(0.0)
    assert w[-1] == pytest.approx(0.0)


def test_hann_peak_at_center():
    w = hann(65)
    assert w[32] == pytest.approx(1.0)


def test_single_sample_windows():
    assert hann(1)[0] == 1.0


def test_hann_bad_length():
    with pytest.raises(ConfigurationError):
        hann(0)


def test_all_windows_bounded():
    w = hann(128)
    assert w.min() >= 0.0
    assert w.max() <= 1.0 + 1e-12

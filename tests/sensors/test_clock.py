"""Tests for the node clock model."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.sensors.clock import Clock


def test_perfect_clock():
    c = Clock(offset_s=0.0, drift_ppm=0.0)
    assert c.local_time(100.0) == 100.0
    assert c.error_at(100.0) == 0.0


def test_initial_offset():
    c = Clock(offset_s=0.5, drift_ppm=0.0)
    assert c.local_time(10.0) == pytest.approx(10.5)


def test_drift_accumulates():
    c = Clock(offset_s=0.0, drift_ppm=100.0)
    # 100 ppm over 1000 s = 0.1 s.
    assert c.error_at(1000.0) == pytest.approx(0.1)


def test_drift_ppm_property():
    assert Clock(drift_ppm=20.0).drift_ppm == pytest.approx(20.0)


def test_synchronize_resets_error():
    c = Clock(offset_s=5.0, drift_ppm=1000.0, sync_residual_s=0.001, seed=1)
    residual = c.synchronize(1000.0)
    assert abs(residual) < 0.01
    assert abs(c.error_at(1000.0)) < 0.01


def test_drift_restarts_after_sync():
    c = Clock(offset_s=0.0, drift_ppm=100.0, sync_residual_s=0.0, seed=1)
    c.synchronize(1000.0)
    # 100 ppm over the next 500 s.
    assert c.error_at(1500.0) == pytest.approx(0.05, abs=1e-6)


def test_sync_residual_statistics():
    c = Clock(sync_residual_s=0.01, seed=2)
    residuals = [c.synchronize(0.0) for _ in range(2000)]
    import numpy as np

    assert abs(np.mean(residuals)) < 0.002
    assert 0.008 < np.std(residuals) < 0.012


def test_negative_residual_rejected():
    with pytest.raises(ConfigurationError):
        Clock(sync_residual_s=-0.1)

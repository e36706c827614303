"""Tests for deviations / crossings / anomaly frequency (eqs. 6-8).

Each test sets a seeded ``NodeDetector``'s baseline (``mean`` is
``m'_T``, ``std`` is ``d'_T``) and reads eqs. 6-8 off the report of
one window: ``D_i = |a_i - d'_T|``, crossings ``D_i > D_max = M m'_T``,
``af`` their fraction, the onset their first index and the energy
their mean ``D_i``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError, SignalLengthError
from repro.detection.node_detector import NodeDetector, NodeDetectorConfig
from repro.types import Position

RATE_HZ = 50.0


def _detector(m_t: float, d_t: float, m: float = 1.0, af: float = 0.3):
    """A detector seeded, then set to the baseline ``(m_t, d_t)``."""
    det = NodeDetector(
        0,
        Position(0.0, 0.0),
        NodeDetectorConfig(
            m=m, af_threshold=af, init_windows=1, rate_hz=RATE_HZ
        ),
    )
    det.process_window(np.ones(4), 0.0)
    det.mean, det.std = m_t, d_t
    return det


def test_deviations_eq6():
    # D = [2, 1, 3] all cross D_max = 0.5; the energy is their mean.
    report = _detector(0.5, 2.0).process_window(np.array([0.0, 1.0, 5.0]), 0.0)
    assert report is not None
    assert report.anomaly_frequency == 1.0
    assert report.energy == 2.0


def test_crossing_mask_strict():
    # D = [1, 2, 3] against D_max = 2: only the last sample crosses.
    report = _detector(2.0, 0.0).process_window(np.array([1.0, 2.0, 3.0]), 0.0)
    assert report is not None
    assert report.anomaly_frequency == pytest.approx(1.0 / 3.0)
    assert report.onset_time == 2 / RATE_HZ
    assert report.energy == 3.0


def test_crossing_mask_rejects_negative_dmax():
    with pytest.raises(ConfigurationError, match="D_max"):
        _detector(-0.5, 0.0).process_window(np.ones(3), 0.0)


def test_anomaly_frequency_eq7():
    report = _detector(1.0, 0.0, af=0.5).process_window(
        np.array([2.0, 0.0, 2.0, 2.0]), 0.0
    )
    assert report is not None
    assert report.anomaly_frequency == 0.75


def test_anomaly_frequency_empty_rejected():
    with pytest.raises(SignalLengthError):
        _detector(1.0, 0.0).process_window(np.array([]), 0.0)


def test_crossing_energy_eq8():
    report = _detector(2.0, 0.0, af=0.5).process_window(
        np.array([1.0, 5.0, 7.0]), 0.0
    )
    assert report is not None
    assert report.energy == 6.0


def test_crossing_energy_no_crossings():
    # No crossing, no report: the window is quiet and updates eq. 5.
    det = _detector(2.0, 0.0, af=0.01)
    assert det.process_window(np.ones(4), 0.0) is None
    assert det.mean != 2.0


def test_onset_index_first_crossing():
    report = _detector(1.0, 0.0).process_window(
        np.array([0.0, 0.0, 5.0, 0.0, 5.0]), 10.0
    )
    assert report is not None
    assert report.onset_time == 10.0 + 2 / RATE_HZ


def test_onset_index_none_when_quiet():
    assert _detector(1.0, 0.0).process_window(np.zeros(5), 0.0) is None


def test_pipeline_on_synthetic_burst():
    """eqs. 6-8 end to end: a burst produces high af and energy."""
    rng = np.random.default_rng(0)
    ambient = np.abs(rng.normal(0, 1.0, 100))
    burst = ambient.copy()
    burst[40:80] += 8.0
    d_t, m_t = 0.8, 0.8  # plausible half-normal stats
    assert _detector(m_t, d_t, m=3.0, af=0.25).process_window(ambient, 0.0) is None
    report = _detector(m_t, d_t, m=3.0, af=0.25).process_window(burst, 0.0)
    assert report is not None
    assert report.anomaly_frequency > 0.3
    assert report.energy > 5.0

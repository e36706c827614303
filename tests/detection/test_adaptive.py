"""Tests for the adaptive baseline (eqs. 4-5) of ``NodeDetector``.

The baseline is the detector's ``mean`` (``m'_T``) and ``std``
(``d'_T``): seeded by the eq. 4 statistics of the first
``init_windows`` windows, then folded forward by eq. 5 on every quiet
window.  ``af_threshold=1.0`` makes every window quiet (``af > 1``
never holds), so those tests see eq. 5 alone.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.errors import ConfigurationError, SignalLengthError
from repro.detection.node_detector import NodeDetector, NodeDetectorConfig
from repro.types import Position


def _detector(**kw) -> NodeDetector:
    return NodeDetector(0, Position(0.0, 0.0), NodeDetectorConfig(**kw))


def _seeded(window, **kw) -> NodeDetector:
    """A detector whose baseline ``window`` alone seeded."""
    det = _detector(init_windows=1, **kw)
    det.process_window(np.asarray(window, dtype=float), 0.0)
    assert det.initialized
    return det


class TestWindowStats:
    def test_constant_window(self):
        det = _seeded(np.full(100, 3.0))
        assert det.mean == 3.0
        assert det.std == 0.0

    def test_known_values(self):
        det = _seeded([1.0, 3.0])
        assert det.mean == 2.0
        assert det.std == 1.0  # population std

    def test_population_not_sample_std(self):
        det = _seeded([0.0, 2.0, 4.0])
        assert det.std == pytest.approx(np.sqrt(8.0 / 3.0))

    def test_empty_rejected(self):
        with pytest.raises(SignalLengthError):
            _detector().process_window(np.array([]), 0.0)


class TestAdaptiveBaseline:
    def test_seed_sets_statistics(self):
        # The initialization windows seed jointly, as one sample set.
        det = _detector(init_windows=2)
        assert det.process_window(np.array([1.0]), 0.0) is None
        assert not det.initialized
        assert det.process_window(np.array([3.0]), 2.0) is None
        assert det.mean == 2.0
        assert det.std == 1.0

    def test_update_follows_eq5(self):
        det = _seeded(np.full(10, 2.0), beta1=0.9, beta2=0.8)
        # |4 - d'_T| = 4 does not exceed D_max = 2 * 2: a quiet window.
        assert det.process_window(np.array([4.0, 4.0]), 2.0) is None
        assert det.mean == pytest.approx(0.9 * 2.0 + 0.1 * 4.0)
        assert det.std == pytest.approx(0.8 * 0.0 + 0.2 * 0.0)

    def test_reseed_resets_count(self):
        # A cold restart forgets the baseline; the next window re-seeds
        # it with no trace of the old one.
        det = _seeded(np.ones(5), af_threshold=1.0)
        det.process_window(np.full(5, 9.0), 2.0)
        det.reset()
        assert not det.initialized
        det.process_window(np.full(5, 7.0), 4.0)
        assert (det.mean, det.std) == (7.0, 0.0)

    def test_converges_to_new_level(self):
        det = _seeded(
            np.full(10, 1.0), beta1=0.9, beta2=0.9, af_threshold=1.0
        )
        for i in range(200):
            det.process_window(np.full(10, 5.0), 2.0 * i)
        assert det.mean == pytest.approx(5.0, rel=1e-6)

    def test_paper_beta_time_constant(self):
        # With beta = 0.99, ~69 updates halve the distance to a new level.
        det = _seeded(np.full(10, 0.0), af_threshold=1.0)
        n = 0
        while det.mean < 0.5 and n < 1000:
            det.process_window(np.full(10, 1.0), 2.0 * n)
            n += 1
        assert n == pytest.approx(math.log(0.5) / math.log(0.99), abs=2)

    def test_frozen_baseline_beta_one(self):
        det = _seeded(
            np.full(10, 2.0), beta1=1.0, beta2=1.0, af_threshold=1.0
        )
        det.process_window(np.full(10, 100.0), 2.0)
        assert det.mean == 2.0

    def test_threshold_is_m_times_mean(self):
        # D_max = M m'_T = 6 with d'_T = 0: a deviation of exactly 6
        # does not cross, anything above does.
        det = _seeded(np.full(10, 3.0), m=2.0)
        assert det.process_window(np.full(10, 6.0), 2.0) is None
        det = _seeded(np.full(10, 3.0), m=2.0)
        report = det.process_window(np.full(10, 6.5), 2.0)
        assert report is not None and report.anomaly_frequency == 1.0

    def test_threshold_rejects_bad_m(self):
        with pytest.raises(ConfigurationError):
            NodeDetectorConfig(m=-1.0)

    def test_invalid_betas(self):
        with pytest.raises(ConfigurationError):
            NodeDetectorConfig(beta1=-0.1)
        with pytest.raises(ConfigurationError):
            NodeDetectorConfig(beta2=1.1)

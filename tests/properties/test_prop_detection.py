"""Property-based tests for the node detection body (eqs. 4-8).

Every property drives ``NodeDetector.process_window``: windows seed or
update its baseline (``mean`` is ``m'_T``, ``std`` is ``d'_T``), or are
evaluated against a baseline set on a seeded detector.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.detection.node_detector import NodeDetector, NodeDetectorConfig
from repro.types import Position

RATE_HZ = 50.0

_windows = hnp.arrays(
    dtype=np.float64,
    shape=st.integers(1, 300),
    elements=st.floats(0.0, 1e5, allow_nan=False, width=64),
)


def _detector(**kw) -> NodeDetector:
    config = NodeDetectorConfig(init_windows=1, rate_hz=RATE_HZ, **kw)
    return NodeDetector(0, Position(0.0, 0.0), config)


def _evaluate(a, d_t, d_max, af_threshold=1e-9):
    """Window ``a`` against ``d'_T = d_t`` and ``D_max = d_max`` (M = 1)."""
    det = _detector(m=1.0, af_threshold=af_threshold)
    det.process_window(np.zeros(1), 0.0)
    det.mean, det.std = d_max, d_t
    return det.process_window(a, 0.0)


@given(_windows)
def test_window_stats_std_non_negative(a):
    det = _detector()
    det.process_window(a, 0.0)
    assert det.std >= 0.0
    assert a.min() - 1e-9 <= det.mean <= a.max() + 1e-9


@given(_windows, st.floats(0.0, 1e4, allow_nan=False))
def test_deviations_non_negative(a, d_t):
    # Against D_max = 0 every sample off d'_T crosses, so the report's
    # energy is the mean magnitude |a_i - d'_T| over those samples.
    report = _evaluate(a, d_t, 0.0)
    off = a[a != d_t]
    if off.size == 0:
        assert report is None
    else:
        assert report is not None
        assert report.energy > 0.0
        assert report.energy == float(np.abs(off - d_t).sum()) / off.size


@given(_windows, st.floats(0.0, 1e4), st.floats(0.0, 1e5), st.floats(0.01, 1.0))
def test_anomaly_frequency_in_unit_interval(a, d_t, d_max, af_threshold):
    report = _evaluate(a, d_t, d_max, af_threshold)
    if report is not None:
        assert af_threshold < report.anomaly_frequency <= 1.0


@given(_windows, st.floats(0.0, 1e4), st.floats(0.0, 1e5))
def test_crossing_energy_exceeds_threshold(a, d_t, d_max):
    report = _evaluate(a, d_t, d_max)
    if (np.abs(a - d_t) > d_max).any():
        assert report is not None
        assert report.energy > d_max
    else:
        assert report is None


@given(_windows, st.floats(0.0, 1e4), st.floats(0.0, 1e5))
def test_onset_is_first_true(a, d_t, d_max):
    report = _evaluate(a, d_t, d_max)
    mask = np.abs(a - d_t) > d_max
    if report is not None:
        idx = int(np.argmax(mask))
        assert mask[idx]
        assert report.onset_time == idx / RATE_HZ


@given(
    st.floats(0.0, 1.0, exclude_max=False),
    st.lists(_windows, min_size=1, max_size=10),
)
def test_baseline_stays_in_data_hull(beta, windows):
    # af_threshold = 1 makes every window quiet: each one updates.
    det = _detector(beta1=beta, beta2=beta, af_threshold=1.0)
    lo = min(float(w.min()) for w in windows)
    hi = max(float(w.max()) for w in windows)
    for i, w in enumerate(windows):
        det.process_window(w, 2.0 * i)
    assert lo - 1e-6 <= det.mean <= hi + 1e-6


@given(_windows)
def test_baseline_update_moves_toward_window(a):
    det = _detector(beta1=0.9, beta2=0.9, af_threshold=1.0)
    det.process_window(np.zeros(10), 0.0)
    before = det.mean
    det.process_window(a, 2.0)
    after = det.mean
    if float(a.mean()) > before:
        assert after >= before
    else:
        assert after <= before

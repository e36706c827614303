"""Tests for the node-level detector."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError, SignalLengthError
from repro.detection.fleet import FleetDetector, FleetMember
from repro.detection.node_detector import (
    NodeDetector,
    NodeDetectorConfig,
    merge_reports,
    window_starts,
)
from repro.detection.reports import NodeReport
from repro.scenario.trace_io import detect_on_trace
from repro.types import Position
from tests.detection.oracles import node_window_walk


def _config(**kw):
    defaults = dict(m=2.0, af_threshold=0.5, window_s=2.0, init_windows=2)
    defaults.update(kw)
    return NodeDetectorConfig(**defaults)


def _detector(**kw):
    return NodeDetector(7, Position(1.0, 2.0), _config(**kw), row=3, column=2)


def _ambient(rng, n):
    """Rectified half-normal-ish ambient stream."""
    return np.abs(rng.normal(0.0, 1.0, n))


class TestStreaming:
    def test_initialization_absorbs_first_windows(self, rng):
        det = _detector()
        w = det.config.window_samples
        assert det.process_window(_ambient(rng, w), 0.0) is None
        assert not det.initialized
        assert det.process_window(_ambient(rng, w), 2.0) is None
        assert det.initialized

    def test_initialization_copies_a_refilled_buffer(self):
        # A caller may refill one buffer per window: the baseline must
        # seed from every window fed (1.0 then 3.0), as the fleet
        # kernel's does, not from the buffer's last contents.
        det = _detector()
        fleet = FleetDetector(
            [FleetMember(7, Position(1.0, 2.0), 3, 2)], det.config
        )
        buf = np.empty(det.config.window_samples)
        for i, level in enumerate((1.0, 3.0)):
            buf[:] = level
            assert det.process_window(buf, 2.0 * i) is None
            assert fleet.step(buf[None, :], [2.0 * i]) == [None]
        assert det.initialized and fleet.seeded[0]
        assert det.mean == fleet._mean[0] == 2.0
        assert det.std == fleet._std[0] == 1.0

    def test_quiet_window_updates_baseline(self, rng):
        det = _detector()
        w = det.config.window_samples
        for i in range(2):
            det.process_window(_ambient(rng, w), 2.0 * i)
        before = det.mean
        third = _ambient(rng, w)
        assert det.process_window(third, 4.0) is None
        beta = det.config.beta1
        assert det.mean == beta * before + float(third.mean()) * (1.0 - beta)

    def test_burst_produces_report(self, rng):
        det = _detector()
        w = det.config.window_samples
        for i in range(4):
            det.process_window(_ambient(rng, w), 2.0 * i)
        burst = _ambient(rng, w) + 10.0
        report = det.process_window(burst, 8.0)
        assert report is not None
        assert report.node_id == 7
        assert report.row == 3 and report.column == 2
        assert report.anomaly_frequency > 0.5
        assert report.energy > 5.0

    def test_report_onset_time_is_first_crossing(self, rng):
        # Bounded (uniform) ambient noise cannot cross the threshold on
        # its own, so the first crossing is exactly the burst start.
        det = _detector(af_threshold=0.3)
        w = det.config.window_samples
        for i in range(4):
            det.process_window(rng.uniform(0.0, 1.0, w), 2.0 * i)
        burst = rng.uniform(0.0, 1.0, w)
        burst[w // 2 :] += 10.0  # crossing starts mid-window
        report = det.process_window(burst, 8.0)
        assert report is not None
        assert report.onset_time == pytest.approx(8.0 + 1.0, abs=0.05)

    def test_anomalous_window_does_not_poison_baseline(self, rng):
        det = _detector()
        w = det.config.window_samples
        for i in range(4):
            det.process_window(_ambient(rng, w), 2.0 * i)
        before = (det.mean, det.std)
        det.process_window(_ambient(rng, w) + 10.0, 8.0)
        assert (det.mean, det.std) == before

    def test_empty_window_rejected(self):
        with pytest.raises(SignalLengthError):
            _detector().process_window(np.array([]), 0.0)

    def test_reset_forgets_baseline(self, rng):
        det = _detector()
        w = det.config.window_samples
        for i in range(3):
            det.process_window(_ambient(rng, w), 2.0 * i)
        det.reset()
        assert not det.initialized


class TestOffline:
    def test_process_samples_sliding(self, rng):
        det = _detector()
        w = det.config.window_samples
        a = _ambient(rng, 20 * w)
        a[10 * w : 10 * w + w // 2] += 10.0  # half-window burst
        reports = node_window_walk(det, a, 0.0)
        assert len(reports) >= 1
        # Sliding windows catch the burst even though it straddles the
        # aligned boundaries.
        assert any(abs(r.onset_time - 20.0) < 2.5 for r in reports)

    def test_short_signal_rejected(self):
        # Long enough for the zero-phase filter, shorter than a window.
        z = np.full(_config().window_samples // 2, 1024, dtype=np.int64)
        with pytest.raises(SignalLengthError):
            detect_on_trace(z, config=_config())

    def test_hop_configurable(self, rng):
        det = _detector(hop_s=2.0)  # no overlap
        assert det.config.hop_samples == det.config.window_samples

    def test_process_trace_checks_sample_rate(self, rng):
        # The detector filters and windows at its own rate, so a 25 Hz
        # trace through the 50 Hz default would be silently mis-timed.
        z = np.rint(1024 + 20 * rng.normal(size=2000)).astype(np.int64)
        with pytest.raises(ConfigurationError, match="disagrees"):
            detect_on_trace(z, rate_hz=25.0, config=_config())
        reports = detect_on_trace(z, rate_hz=25.0, config=_config(rate_hz=25.0))
        assert isinstance(reports, list)


class TestMergeReports:
    def _report(self, t, energy=1.0, af=0.8):
        return NodeReport(
            node_id=1,
            position=Position(0, 0),
            onset_time=t,
            energy=energy,
            anomaly_frequency=af,
        )

    def test_merges_consecutive(self):
        merged = merge_reports(
            [self._report(10.0, 2.0), self._report(11.0, 5.0)], gap_s=4.0
        )
        assert len(merged) == 1
        assert merged[0].onset_time == 10.0
        assert merged[0].energy == 5.0

    def test_keeps_separate_events(self):
        merged = merge_reports(
            [self._report(10.0), self._report(100.0)], gap_s=4.0
        )
        assert len(merged) == 2

    def test_unsorted_input(self):
        merged = merge_reports(
            [self._report(100.0), self._report(10.0), self._report(11.0)]
        )
        assert len(merged) == 2
        assert merged[0].onset_time == 10.0

    def test_empty_input(self):
        assert merge_reports([]) == []

    def test_negative_gap_rejected(self):
        with pytest.raises(ConfigurationError):
            merge_reports([], gap_s=-1.0)


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kw",
        [
            dict(m=0.0),
            dict(af_threshold=0.0),
            dict(af_threshold=1.5),
            dict(window_s=0.0),
            dict(hop_s=3.0),
            dict(init_windows=0),
            dict(rate_hz=0.0),
            dict(beta1=1.5),
            # The 1 Hz low-pass needs a rate above its Nyquist rate.
            dict(rate_hz=2.0),
        ],
    )
    def test_invalid(self, kw):
        with pytest.raises(ConfigurationError):
            _config(**kw)

    def test_window_samples(self):
        assert _config(window_s=2.0, rate_hz=50.0).window_samples == 100
        assert _config(window_s=2.0, rate_hz=25.0).window_samples == 50

    def test_default_hop_is_half_window(self):
        assert _config().hop_samples == 50


class TestWindowStarts:
    def test_exact_grid_has_no_extra_window(self):
        cfg = _config()  # window 100, hop 50
        starts = window_starts(cfg, 300)
        assert starts == [0, 50, 100, 150, 200]

    def test_off_grid_appends_right_aligned_tail(self):
        cfg = _config()
        starts = window_starts(cfg, 327)
        assert starts[-1] == 227
        assert starts[:-1] == [0, 50, 100, 150, 200]

    def test_too_short_stream_is_empty(self):
        cfg = _config()
        assert window_starts(cfg, cfg.window_samples - 1) == []

    def test_single_window(self):
        cfg = _config()
        assert window_starts(cfg, cfg.window_samples) == [0]

    def test_custom_hop(self):
        cfg = _config(hop_s=0.7)  # hop 35
        starts = window_starts(cfg, 250)
        assert starts == [0, 35, 70, 105, 140, 150]
        assert starts[-1] == 250 - cfg.window_samples


class TestTrailingWindowRegression:
    def test_trailing_samples_are_evaluated(self, rng):
        # A burst confined to the final, off-hop-grid tail must still
        # be seen: the window grid ends with a right-aligned window.
        det = _detector()
        w = det.config.window_samples
        n = w * 6 + 30
        a = _ambient(rng, n)
        a[-(w // 2 + 20) :] += 50.0
        reports = node_window_walk(det, a, 0.0)
        assert reports, "burst in the trailing partial hop was missed"
        last_start = (n - w) / det.config.rate_hz
        assert any(r.onset_time >= last_start for r in reports)

    def test_no_duplicate_final_window_on_exact_grid(self, rng):
        det = _detector()
        det2 = _detector()
        w = det.config.window_samples
        hop = det.config.hop_samples
        n = w + 4 * hop  # exact hop grid
        a = _ambient(rng, n)
        a[-w:] += 50.0
        r1 = node_window_walk(det, a, 0.0)
        # Manual walk without any tail logic:
        r2 = []
        for start in range(0, n - w + 1, hop):
            rep = det2.process_window(a[start : start + w], start / 50.0)
            if rep is not None:
                r2.append(rep)
        assert r1 == r2


class TestInternalErrorSurvivesOptimization:
    def test_onset_check_is_a_real_raise(self):
        # The af > threshold with empty mask invariant must not rely on
        # ``assert`` (stripped under ``python -O``).
        import ast
        import inspect

        import repro.detection.node_detector as mod

        tree = ast.parse(inspect.getsource(mod))
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name == "process_window":
                asserts = [n for n in ast.walk(node) if isinstance(n, ast.Assert)]
                assert not asserts, "process_window still uses assert"
                return
        pytest.fail("process_window not found")

    def test_internal_error_is_sid_error(self):
        from repro.errors import InternalError, SIDError

        assert issubclass(InternalError, SIDError)

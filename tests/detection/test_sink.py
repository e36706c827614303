"""Tests for sink-level fusion."""

from __future__ import annotations

import pytest

from repro.detection.reports import ClusterReport, NodeReport
from repro.detection.sink import Sink
from repro.types import Position


def _cluster_report(t, c=0.8, speed=None, heading=None):
    node = NodeReport(
        node_id=1,
        position=Position(0, 0),
        onset_time=t,
        energy=5.0,
        anomaly_frequency=0.7,
    )
    return ClusterReport(
        head_id=1,
        reports=(node,),
        time_correlation=c,
        energy_correlation=1.0,
        correlation=c,
        detection_time=t,
        speed_estimate_mps=speed,
        heading_alpha_deg=heading,
    )


def test_reports_within_window_merge():
    sink = Sink()
    assert sink.receive(_cluster_report(100.0)) is None
    assert sink.receive(_cluster_report(130.0)) is None
    decision = sink.flush()
    assert decision is not None
    assert decision.intrusion
    assert decision.n_clusters == 2


def test_distant_report_finalises_previous_group():
    sink = Sink()
    sink.receive(_cluster_report(100.0))
    decision = sink.receive(_cluster_report(300.0))
    assert decision is not None
    assert decision.n_clusters == 1
    assert len(sink.pending_reports) == 1


def test_low_correlation_group_not_intrusion():
    sink = Sink()
    sink.receive(_cluster_report(100.0, c=0.1))
    decision = sink.flush()
    assert decision is not None
    assert not decision.intrusion


def test_mixed_group_confirms():
    sink = Sink()
    sink.receive(_cluster_report(100.0, c=0.1))
    sink.receive(_cluster_report(110.0, c=0.9))
    decision = sink.flush()
    assert decision.intrusion


def test_speed_estimates_averaged():
    sink = Sink()
    sink.receive(_cluster_report(100.0, speed=4.0, heading=50.0))
    sink.receive(_cluster_report(110.0, speed=6.0, heading=70.0))
    decision = sink.flush()
    assert decision.speed_estimate_mps == pytest.approx(5.0)
    assert decision.heading_alpha_deg == pytest.approx(60.0)


def test_rejected_cluster_speed_ignored():
    sink = Sink()
    sink.receive(_cluster_report(100.0, c=0.1, speed=99.0))
    decision = sink.flush()
    assert decision.speed_estimate_mps is None


def test_flush_empty_returns_none():
    assert Sink().flush() is None


def test_flush_is_idempotent_on_empty_sink():
    sink = Sink()
    assert sink.flush() is None
    assert sink.flush() is None
    assert sink.decisions == ()


def test_flush_clears_pending_and_second_flush_is_none():
    sink = Sink()
    sink.receive(_cluster_report(100.0))
    assert sink.flush() is not None
    assert sink.pending_reports == ()
    assert sink.flush() is None
    assert len(sink.decisions) == 1


def test_degraded_report_flags_decision():
    sink = Sink()
    degraded = _cluster_report(100.0, c=0.9)
    sink.receive(
        ClusterReport(
            head_id=degraded.head_id,
            reports=degraded.reports,
            time_correlation=degraded.time_correlation,
            energy_correlation=degraded.energy_correlation,
            correlation=degraded.correlation,
            detection_time=degraded.detection_time,
            degraded=True,
        )
    )
    decision = sink.flush()
    assert decision.intrusion
    assert decision.degraded


def test_healthy_confirmation_not_tainted_by_rejected_degraded():
    # A degraded low-correlation report in the same group must not mark
    # a decision that was confirmed by a healthy report.
    sink = Sink()
    weak = _cluster_report(100.0, c=0.1)
    sink.receive(
        ClusterReport(
            head_id=weak.head_id,
            reports=weak.reports,
            time_correlation=weak.time_correlation,
            energy_correlation=weak.energy_correlation,
            correlation=weak.correlation,
            detection_time=weak.detection_time,
            degraded=True,
        )
    )
    sink.receive(_cluster_report(110.0, c=0.9))
    decision = sink.flush()
    assert decision.intrusion
    assert not decision.degraded


def test_all_rejected_group_inherits_degraded_flag():
    sink = Sink()
    weak = _cluster_report(100.0, c=0.1)
    sink.receive(
        ClusterReport(
            head_id=weak.head_id,
            reports=weak.reports,
            time_correlation=weak.time_correlation,
            energy_correlation=weak.energy_correlation,
            correlation=weak.correlation,
            detection_time=weak.detection_time,
            degraded=True,
        )
    )
    decision = sink.flush()
    assert not decision.intrusion
    assert decision.degraded


def test_decisions_accumulate():
    sink = Sink()
    sink.receive(_cluster_report(100.0))
    sink.flush()
    sink.receive(_cluster_report(500.0))
    sink.flush()
    assert len(sink.decisions) == 2

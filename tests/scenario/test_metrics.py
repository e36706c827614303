"""Tests for detection metrics."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.detection.reports import NodeReport
from repro.scenario.metrics import classify_alarms
from repro.types import Position, TimeWindow


def _report(t):
    return NodeReport(
        node_id=1,
        position=Position(0, 0),
        onset_time=t,
        energy=1.0,
        anomaly_frequency=0.5,
    )


def test_classify_true_and_false():
    truth = [TimeWindow(100.0, 105.0)]
    reports = [_report(101.0), _report(300.0)]
    ca = classify_alarms(reports, truth, tolerance_s=1.0)
    assert ca.true_positives == 1
    assert ca.false_positives == 1
    assert ca.events_detected == 1
    assert ca.events_total == 1


def test_tolerance_expands_window():
    truth = [TimeWindow(100.0, 102.0)]
    ca = classify_alarms([_report(103.0)], truth, tolerance_s=2.0)
    assert ca.true_positives == 1


def test_missed_event():
    ca = classify_alarms([], [TimeWindow(10.0, 12.0)])
    assert ca.events_detected == 0
    assert ca.precision == 0.0


def test_multiple_alarms_one_event():
    truth = [TimeWindow(100.0, 105.0)]
    reports = [_report(101.0), _report(102.0), _report(103.0)]
    ca = classify_alarms(reports, truth)
    assert ca.true_positives == 3
    assert ca.events_detected == 1


def test_negative_tolerance_rejected():
    with pytest.raises(ConfigurationError):
        classify_alarms([], [], tolerance_s=-1.0)

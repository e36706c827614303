"""Focused tests for TemporaryCluster internals.

Covers the row-projection (span + one-side filtering + silent-row
zeros) and the Fig. 10 candidate-selection logic of the speed
estimator, which the higher-level tests only exercise indirectly.
"""

from __future__ import annotations

import math

import pytest

from repro.detection.cluster import (
    ClusterEvent,
    TemporaryCluster,
    TemporaryClusterConfig,
    TravelLine,
)
from repro.detection.reports import NodeReport
from repro.detection.speed import four_node_speed_estimate
from repro.physics.kelvin import KelvinWake
from repro.types import Position


def _report(node_id, x, y, t, energy, row, column=0):
    return NodeReport(
        node_id=node_id,
        position=Position(x, y),
        onset_time=t,
        energy=energy,
        anomaly_frequency=0.8,
        row=row,
        column=column,
    )


def _cluster(reports, **cfg):
    defaults = dict(
        collection_timeout_s=300.0,
        quiet_timeout_s=100.0,
        min_reports=1,
        min_rows=1,
    )
    defaults.update(cfg)
    cluster = TemporaryCluster(reports[0], TemporaryClusterConfig(**defaults))
    for r in reports[1:]:
        cluster.add_report(r)
    return cluster


class TestRowsForCorrelation:
    TRACK = TravelLine(Position(50.0, 0.0), heading_rad=math.pi / 2)

    def test_span_includes_silent_rows(self):
        reports = [
            _report(0, 30.0, 0.0, 100.0, 5.0, row=0),
            _report(1, 30.0, 75.0, 110.0, 5.0, row=3),
        ]
        rows = _cluster(reports).rows_for_correlation(self.TRACK)
        assert len(rows) == 4  # rows 0..3 inclusive
        assert rows[1] == [] and rows[2] == []

    def test_rows_outside_span_excluded(self):
        reports = [
            _report(0, 30.0, 50.0, 100.0, 5.0, row=2),
            _report(1, 30.0, 75.0, 110.0, 5.0, row=3),
        ]
        rows = _cluster(reports).rows_for_correlation(self.TRACK)
        assert len(rows) == 2

    def test_one_side_filtering_applied(self):
        # Two port (x < 50) and one starboard (x > 50) in one row:
        # starboard is dropped.
        reports = [
            _report(0, 30.0, 0.0, 100.0, 5.0, row=0),
            _report(1, 10.0, 0.0, 105.0, 4.0, row=0),
            _report(2, 70.0, 0.0, 101.0, 5.0, row=0),
        ]
        rows = _cluster(reports).rows_for_correlation(self.TRACK)
        kept_ids = {obs.node_id for obs in rows[0]}
        assert kept_ids == {0, 1}

    def test_distances_are_unsigned(self):
        reports = [_report(0, 10.0, 0.0, 100.0, 5.0, row=0)]
        rows = _cluster(reports).rows_for_correlation(self.TRACK)
        assert rows[0][0].distance_to_track == pytest.approx(40.0)


class TestSpeedCandidateSelection:
    def _wake_reports(self, alpha_deg=60.0, speed=5.144, spacing=25.0):
        alpha = math.radians(alpha_deg)
        origin = Position(
            spacing * 1.5 - 200.0 * math.cos(alpha),
            spacing * 1.5 - 200.0 * math.sin(alpha),
        )
        wake = KelvinWake(
            origin=origin,
            heading_rad=alpha,
            speed_mps=speed,
            half_angle_rad=math.radians(20.0),
        )
        track = TravelLine(origin, alpha)
        reports = []
        nid = 0
        for row in range(3):
            for col in range(3):
                pos = Position(col * spacing, row * spacing)
                reports.append(
                    _report(
                        nid,
                        pos.x,
                        pos.y,
                        t=wake.arrival_time(pos),
                        energy=wake.wave_height_at(pos) * 100.0,
                        row=row,
                        column=col,
                    )
                )
                nid += 1
        reports.sort(key=lambda r: r.onset_time)
        return reports, track, speed

    def test_estimate_recovers_speed(self):
        reports, track, speed = self._wake_reports()
        est = four_node_speed_estimate(reports, track)
        assert est is not None
        assert est.speed_mean_mps == pytest.approx(speed, rel=0.02)

    def test_no_estimate_when_single_column(self):
        reports, track, _ = self._wake_reports()
        one_column = [r for r in reports if r.column == 0]
        assert four_node_speed_estimate(one_column, track) is None

    def test_no_estimate_when_single_row(self):
        reports, track, _ = self._wake_reports()
        one_row = [r for r in reports if r.row == 1]
        assert four_node_speed_estimate(one_row, track) is None

    def test_highest_energy_candidates_preferred(self):
        reports, track, speed = self._wake_reports()
        # Add a decoy duplicate in an occupied cell with garbage timing
        # but LOWER energy: it must not displace the real report.
        decoy = _report(
            99, 0.0, 0.0, t=reports[0].onset_time + 40.0, energy=0.1,
            row=0, column=0,
        )
        est = four_node_speed_estimate(reports + [decoy], track)
        assert est is not None
        assert est.speed_mean_mps == pytest.approx(speed, rel=0.05)

    def test_estimate_skipped_below_threshold(self):
        # A cluster that cannot confirm carries no speed estimate, even
        # when its reports satisfy the Fig. 10 four-node condition.
        reports, track, _ = self._wake_reports()
        assert four_node_speed_estimate(reports, track) is not None
        cluster = _cluster(reports, min_rows=4)
        event, report = cluster.evaluate(track)
        assert event == ClusterEvent.REJECTED_LOW_CORRELATION
        assert report is not None
        assert report.speed_estimate_mps is None


class TestMovingDirection:
    def test_direction_attached_to_estimate(self):
        sel = TestSpeedCandidateSelection()
        reports, track, _ = sel._wake_reports()
        est = four_node_speed_estimate(reports, track)
        assert est is not None
        assert est.direction in (-1, 1)

    def test_confirmed_report_carries_direction(self):
        sel = TestSpeedCandidateSelection()
        reports, track, _ = sel._wake_reports()
        cluster = _cluster(reports, min_reports=5, min_rows=3)
        event, report = cluster.evaluate(track)
        if report is not None and report.speed_estimate_mps is not None:
            assert report.moving_direction in (-1, 1)

"""Tests for the declarative fault plan and its validation."""

from __future__ import annotations

import math
from dataclasses import asdict

import pytest

from repro.errors import ConfigurationError
from repro.faults.plan import (
    BatteryDrain,
    BurstLoss,
    ClockSyncFailure,
    FaultPlan,
    FaultStats,
    LinkBlackout,
    MessageDelay,
    MessageDuplication,
    NodeCrash,
    SensorFault,
    SensorFaultKind,
)


class TestSpecValidation:
    def test_sensor_fault_rejects_nonpositive_duration(self):
        with pytest.raises(ConfigurationError):
            SensorFault(0, SensorFaultKind.STUCK_AT, 0.0, duration_s=0.0)

    def test_spike_rejects_nonpositive_rate(self):
        with pytest.raises(ConfigurationError):
            SensorFault(0, SensorFaultKind.SPIKE, 0.0, rate_hz=0.0)

    def test_saturation_magnitude_is_fraction(self):
        with pytest.raises(ConfigurationError):
            SensorFault(0, SensorFaultKind.SATURATION, 0.0, magnitude=1.5)
        SensorFault(0, SensorFaultKind.SATURATION, 0.0, magnitude=0.5)

    def test_dropout_magnitude_is_probability(self):
        with pytest.raises(ConfigurationError):
            SensorFault(0, SensorFaultKind.DROPOUT, 0.0, magnitude=2.0)

    def test_crash_rejects_nonpositive_reboot(self):
        with pytest.raises(ConfigurationError):
            NodeCrash(0, at_s=10.0, reboot_after_s=0.0)

    def test_battery_drain_factor_must_exceed_one(self):
        with pytest.raises(ConfigurationError):
            BatteryDrain(0, at_s=0.0, factor=1.0)
        BatteryDrain(0, at_s=0.0, factor=2.0)

    def test_burst_loss_probabilities_bounded(self):
        with pytest.raises(ConfigurationError):
            BurstLoss(p_good_to_bad=1.5)
        with pytest.raises(ConfigurationError):
            BurstLoss(bad_loss_rate=-0.1)

    def test_duplication_probability_bounds(self):
        with pytest.raises(ConfigurationError):
            MessageDuplication(probability=0.0)
        with pytest.raises(ConfigurationError):
            MessageDelay(probability=0.5, delay_s=0.0)


class TestWindows:
    def test_sensor_fault_window(self):
        f = SensorFault(
            0, SensorFaultKind.STUCK_AT, start_s=10.0, duration_s=5.0
        )
        assert not f.window_contains(9.99)
        assert f.window_contains(10.0)
        assert f.window_contains(14.99)
        assert not f.window_contains(15.0)

    def test_sync_failure_default_window_is_unbounded(self):
        f = ClockSyncFailure(node_id=1)
        assert f.window_contains(0.0)
        assert f.window_contains(1e9)

    def test_blackout_covers_specific_link_both_directions(self):
        b = LinkBlackout(node_a=1, node_b=2, start_s=0.0, duration_s=10.0)
        assert b.covers(1, 2, 5.0)
        assert b.covers(2, 1, 5.0)
        assert not b.covers(1, 3, 5.0)
        assert not b.covers(1, 2, 10.0)

    def test_blackout_node_wildcard(self):
        b = LinkBlackout(node_a=1, node_b=None, start_s=0.0, duration_s=10.0)
        assert b.covers(1, 7, 1.0)
        assert b.covers(7, 1, 1.0)
        assert not b.covers(2, 7, 1.0)


class TestFaultPlan:
    def test_empty_plan_inactive(self):
        plan = FaultPlan.none()
        assert not plan.active
        assert not plan.has_channel_faults
        assert not plan.has_delivery_faults

    def test_any_single_fault_activates(self):
        assert FaultPlan(node_crashes=(NodeCrash(0, 1.0),)).active
        assert FaultPlan(burst_loss=BurstLoss()).active
        assert FaultPlan(
            sync_failures=(ClockSyncFailure(0),)
        ).active

    def test_sensor_faults_for_filters_by_node(self):
        f0 = SensorFault(0, SensorFaultKind.STUCK_AT, 0.0)
        f1 = SensorFault(1, SensorFaultKind.DRIFT, 0.0)
        plan = FaultPlan(sensor_faults=(f0, f1))
        assert plan.sensor_faults_for(0) == (f0,)
        assert plan.sensor_faults_for(1) == (f1,)
        assert plan.sensor_faults_for(2) == ()

    def test_sync_suppressed_respects_window(self):
        plan = FaultPlan(
            sync_failures=(
                ClockSyncFailure(3, start_s=100.0, duration_s=50.0),
            )
        )
        assert not plan.sync_suppressed(3, 99.0)
        assert plan.sync_suppressed(3, 120.0)
        assert not plan.sync_suppressed(4, 120.0)

    def test_channel_and_delivery_flags(self):
        assert FaultPlan(
            link_blackouts=(LinkBlackout(0, None, 0.0, 1.0),)
        ).has_channel_faults
        assert FaultPlan(
            duplication=MessageDuplication(probability=0.5)
        ).has_delivery_faults
        assert FaultPlan(
            delay=MessageDelay(probability=0.5, delay_s=1.0)
        ).has_delivery_faults


class TestOutages:
    def test_one_nodes_overlapping_or_touching_entries_merge(self):
        plan = FaultPlan(
            node_crashes=(
                NodeCrash(4, at_s=10.0, reboot_after_s=15.0),  # [10, 25]
                NodeCrash(2, at_s=12.0, reboot_after_s=1.0),  # [12, 13]
                NodeCrash(4, at_s=20.0, reboot_after_s=15.0),  # to 35
                NodeCrash(4, at_s=35.0, reboot_after_s=5.0),  # touches: 40
                NodeCrash(4, at_s=41.0),  # after a gap, no reboot
            )
        )
        outages = plan.outages(0.0)
        assert [(o.crash.node_id, o.start_s, o.end_s) for o in outages] == [
            (4, 10.0, 40.0),
            (2, 12.0, 13.0),
            (4, 41.0, math.inf),
        ]
        assert outages[0].crash is plan.node_crashes[0]

    def test_entries_without_overlap_are_the_outages_in_plan_order(self):
        crashes = (
            NodeCrash(3, at_s=50.0, reboot_after_s=5.0),
            NodeCrash(1, at_s=-2.0, reboot_after_s=4.0),  # lands at now
            NodeCrash(3, at_s=10.0, reboot_after_s=20.0),
        )
        outages = FaultPlan(node_crashes=crashes).outages(1.0)
        assert [o.crash for o in outages] == list(crashes)
        assert [(o.start_s, o.end_s) for o in outages] == [
            (50.0, 55.0),
            (1.0, 5.0),
            (10.0, 30.0),
        ]


class TestRandomPlan:
    def test_same_seed_same_plan(self):
        ids = list(range(20))
        kwargs = dict(
            crash_fraction=0.3,
            sensor_fault_fraction=0.25,
            sync_failure_fraction=0.2,
            seed=11,
        )
        assert FaultPlan.random(ids, **kwargs) == FaultPlan.random(
            ids, **kwargs
        )

    def test_different_seed_different_plan(self):
        ids = list(range(20))
        p1 = FaultPlan.random(ids, crash_fraction=0.5, seed=1)
        p2 = FaultPlan.random(ids, crash_fraction=0.5, seed=2)
        assert p1 != p2

    def test_fractions_select_expected_counts(self):
        ids = list(range(10))
        plan = FaultPlan.random(
            ids,
            crash_fraction=0.2,
            sensor_fault_fraction=0.5,
            sync_failure_fraction=0.1,
            seed=0,
        )
        assert len(plan.node_crashes) == 2
        assert len(plan.sensor_faults) == 5
        assert len(plan.sync_failures) == 1
        assert all(c.node_id in ids for c in plan.node_crashes)

    def test_zero_fractions_make_inactive_plan(self):
        plan = FaultPlan.random(list(range(10)), seed=0)
        assert not plan.active

    def test_fraction_out_of_range_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultPlan.random([0, 1], crash_fraction=1.5)

    def test_sensor_fault_kinds_cycle_through_catalogue(self):
        plan = FaultPlan.random(
            list(range(10)), sensor_fault_fraction=1.0, seed=0
        )
        kinds = {f.kind for f in plan.sensor_faults}
        assert kinds == set(SensorFaultKind)


class TestFaultStats:
    def test_counters_start_at_zero(self):
        assert all(v == 0 for v in asdict(FaultStats()).values())

    def test_total_tracks_increments(self):
        stats = FaultStats()
        stats.node_crashes += 2
        stats.frames_burst_lost += 3
        snapshot = asdict(stats)
        assert sum(snapshot.values()) == 5
        assert snapshot["node_crashes"] == 2

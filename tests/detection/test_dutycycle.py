"""Tests for the duty-cycle controller (Sec. IV-A)."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.detection.dutycycle import DutyCycleConfig, DutyCycleController


@pytest.fixture
def controller():
    return DutyCycleController(
        list(range(8)),
        DutyCycleConfig(
            sentinel_fraction=0.25,
            rotation_period_s=60.0,
            wakeup_latency_s=2.0,
            hold_s=100.0,
        ),
    )


def test_sentinel_count(controller):
    assert controller.n_sentinels == 2
    assert len(controller.sentinels_at(0.0)) == 2


def test_sentinels_rotate(controller):
    first = set(controller.sentinels_at(0.0))
    second = set(controller.sentinels_at(61.0))
    assert first != second


def test_rotation_covers_all_nodes(controller):
    seen = set()
    for slot in range(8):
        seen.update(controller.sentinels_at(slot * 60.0 + 1.0))
    assert seen == set(range(8))


def test_sleeping_node_inactive(controller):
    sentinels = set(controller.sentinels_at(10.0))
    sleeper = next(n for n in range(8) if n not in sentinels)
    assert not controller.is_active(sleeper, 10.0)


def test_sentinel_active(controller):
    sentinel = controller.sentinels_at(10.0)[0]
    assert controller.is_active(sentinel, 10.0)


def test_alarm_wakes_fleet_after_latency(controller):
    controller.alarm(100.0)
    assert not controller.in_wakeup(101.0)  # still within latency
    assert controller.in_wakeup(103.0)
    for nid in range(8):
        assert controller.is_active(nid, 103.0)


def test_wakeup_expires(controller):
    controller.alarm(100.0)
    assert not controller.in_wakeup(100.0 + 2.0 + 100.0 + 1.0)


def test_overlapping_alarms_merge(controller):
    controller.alarm(100.0)
    controller.alarm(150.0)
    assert len(controller._wake_intervals) == 1
    assert controller.in_wakeup(240.0)


def test_disjoint_alarms_kept(controller):
    controller.alarm(100.0)
    controller.alarm(1000.0)
    assert len(controller._wake_intervals) == 2


def test_active_fraction_tracks_sentinel_share(controller):
    frac = controller.active_fraction(0.0, 240.0, dt=5.0)
    assert frac == pytest.approx(0.25, abs=0.05)


def test_active_fraction_rises_during_wakeup(controller):
    controller.alarm(0.0)
    frac = controller.active_fraction(5.0, 95.0, dt=5.0)
    assert frac == 1.0


def test_energy_summary_gain(controller):
    summary = controller.energy_summary(86400.0)
    assert summary["duty_cycled_j"] < summary["always_on_j"]
    # 25 % sentinel share at the coarse rate -> better than 4x lifetime.
    assert 3.0 < summary["lifetime_gain"] < 8.0


def test_coarse_sentinels_beat_full_rate_sentinels():
    full = DutyCycleController(
        list(range(8)),
        DutyCycleConfig(sentinel_fraction=0.25, coarse_rate_hz=None),
    ).energy_summary(86400.0)
    coarse = DutyCycleController(
        list(range(8)),
        DutyCycleConfig(sentinel_fraction=0.25, coarse_rate_hz=10.0),
    ).energy_summary(86400.0)
    assert coarse["lifetime_gain"] > full["lifetime_gain"]


def test_invalid_coarse_rate():
    with pytest.raises(ConfigurationError):
        DutyCycleConfig(coarse_rate_hz=0.0)


def test_unknown_node_rejected(controller):
    with pytest.raises(ConfigurationError):
        controller.is_active(99, 0.0)


def test_config_validation():
    with pytest.raises(ConfigurationError):
        DutyCycleConfig(sentinel_fraction=0.0)
    with pytest.raises(ConfigurationError):
        DutyCycleConfig(rotation_period_s=0.0)
    with pytest.raises(ConfigurationError):
        DutyCycleConfig(wakeup_latency_s=-1.0)
    # A zero latency would let an alarm wake rows of its own window
    # group, which the duty-cycled walk steps at once.
    with pytest.raises(ConfigurationError, match="wakeup_latency_s"):
        DutyCycleConfig(wakeup_latency_s=0.0)
    with pytest.raises(ConfigurationError):
        DutyCycleConfig(hold_s=0.0)


def test_empty_node_list_rejected():
    with pytest.raises(ConfigurationError):
        DutyCycleController([])


def test_full_fraction_always_active():
    ctl = DutyCycleController([0, 1], DutyCycleConfig(sentinel_fraction=1.0))
    assert ctl.is_active(0, 0.0) and ctl.is_active(1, 0.0)


"""Tests for the assembled iMote2 model."""

from __future__ import annotations

import numpy as np
import pytest

from repro.constants import GRAVITY
from repro.errors import ConfigurationError
from repro.physics.buoy import BuoyMotion
from repro.sensors.imote2 import IMote2, MoteConfig


def _still_motion(n=500, rate=50.0):
    t = np.arange(n) / rate
    return BuoyMotion(
        t=t,
        fx=np.zeros(n),
        fy=np.zeros(n),
        fz=np.full(n, GRAVITY),
    )


def test_record_produces_trace():
    mote = IMote2(0, seed=1)
    trace = mote.record(_still_motion())
    assert len(trace) == 500
    assert trace.rate_hz == 50.0


def test_resting_z_near_1024():
    mote = IMote2(0, seed=2)
    trace = mote.record(_still_motion())
    assert abs(trace.z.mean() - 1024) < 40  # bias + noise allowance


def test_z_only_record_matches_three_axis_record():
    # A z-only motion records z alone; the z counts, the device's noise
    # stream and the battery end as the three-axis record leaves them.
    still = _still_motion()
    z_only = BuoyMotion(t=still.t, fx=None, fy=None, fz=still.fz)
    a, b = IMote2(0, seed=11), IMote2(0, seed=11)
    full = a.record(still)
    trace = b.record(z_only)
    assert trace.x is None and trace.y is None
    assert np.array_equal(trace.z, full.z)
    assert trace.t0 == full.t0
    assert (
        b.accelerometer._noise_rng.bit_generator.state
        == a.accelerometer._noise_rng.bit_generator.state
    )
    assert b.battery.remaining_j == a.battery.remaining_j
    assert b.battery.breakdown() == a.battery.breakdown()


def test_record_bills_sampling_energy():
    mote = IMote2(0, seed=3)
    before = mote.battery.remaining_j
    mote.record(_still_motion())
    assert mote.battery.remaining_j < before
    assert "sampling" in mote.battery.breakdown()


def test_trace_t0_is_local_time():
    config = MoteConfig(clock_drift_ppm=0.0)
    mote = IMote2(0, config, seed=4)
    # Force a known offset.
    mote.clock._offset = 0.25
    motion = _still_motion()
    trace = mote.record(motion)
    assert trace.t0 == pytest.approx(0.25)


def test_sample_instants_grid():
    mote = IMote2(0, seed=5)
    t = mote.sample_instants(100.0, 2.0)
    assert len(t) == 100
    assert t[0] == 100.0


def test_synchronize_clock_bills_radio():
    mote = IMote2(0, seed=6)
    mote.synchronize_clock(50.0)
    spent = mote.battery.breakdown()
    assert "tx" in spent and "rx" in spent


def test_deterministic_per_seed():
    motion = _still_motion()
    a = IMote2(0, seed=7).record(motion)
    b = IMote2(0, seed=7).record(motion)
    assert np.array_equal(a.z, b.z)


def test_distinct_nodes_have_distinct_hardware():
    motion = _still_motion()
    a = IMote2(0, seed=8).record(motion)
    b = IMote2(1, seed=9).record(motion)
    assert not np.array_equal(a.z, b.z)


def test_empty_motion_rejected():
    mote = IMote2(0, seed=10)
    empty = BuoyMotion(
        t=np.array([]), fx=np.array([]), fy=np.array([]), fz=np.array([])
    )
    with pytest.raises(ConfigurationError):
        mote.record(empty)


def test_invalid_node_id():
    with pytest.raises(ConfigurationError):
        IMote2(-1)


def test_invalid_config():
    with pytest.raises(ConfigurationError):
        MoteConfig(sample_rate_hz=0.0)

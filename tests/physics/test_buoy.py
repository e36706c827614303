"""Tests for buoy dynamics (heave, tilt, mooring drift)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.constants import GRAVITY
from repro.errors import ConfigurationError
from repro.physics.buoy import Buoy, BuoyMotion
from repro.types import Position


@pytest.fixture
def buoy():
    return Buoy(Position(10.0, 20.0), seed=5)


def test_drift_bounded_by_radius(buoy):
    t = np.linspace(0, 3600, 10000)
    dx, dy = buoy.drift_offsets(t)
    r = np.hypot(dx, dy)
    assert r.max() <= buoy.drift_radius_m + 1e-9


def test_drift_actually_moves(buoy):
    t = np.linspace(0, 600, 2000)
    dx, dy = buoy.drift_offsets(t)
    assert np.hypot(dx, dy).max() > 0.2


def test_zero_drift_radius():
    b = Buoy(Position(0, 0), drift_radius_m=0.0, seed=1)
    dx, dy = b.drift_offsets(np.linspace(0, 100, 50))
    assert np.all(dx == 0) and np.all(dy == 0)


def test_position_at_offsets_anchor(buoy):
    p = buoy.position_at(123.0)
    assert abs(p.x - 10.0) <= buoy.drift_radius_m
    assert abs(p.y - 20.0) <= buoy.drift_radius_m


def test_deterministic_for_seed():
    t = np.linspace(0, 100, 500)
    a = Buoy(Position(0, 0), seed=3)
    b = Buoy(Position(0, 0), seed=3)
    assert np.array_equal(a.tilt_angles(t)[0], b.tilt_angles(t)[0])
    assert np.array_equal(a.drift_offsets(t)[0], b.drift_offsets(t)[0])


def test_tilt_rms_near_configuration():
    b = Buoy(Position(0, 0), tilt_rms_deg=8.0, seed=7)
    t = np.linspace(0, 3600, 30000)
    tx, _ = b.tilt_angles(t)
    rms_deg = np.degrees(np.sqrt(np.mean(tx**2)))
    assert 4.0 < rms_deg < 12.0


def test_resting_specific_force_is_gravity():
    b = Buoy(Position(0, 0), tilt_rms_deg=0.0, seed=1)
    t = np.linspace(0, 10, 100)
    m = b.specific_force(t, np.zeros_like(t), (0.0, 0.0))
    assert np.allclose(m.fz, GRAVITY)
    assert np.allclose(m.fx, 0.0)
    assert np.allclose(m.fy, 0.0)


def test_vertical_accel_passes_through_untitled():
    b = Buoy(Position(0, 0), tilt_rms_deg=0.0, seed=1)
    t = np.linspace(0, 10, 500)
    az = 0.5 * np.sin(2 * np.pi * 0.3 * t)
    m = b.specific_force(t, az)
    assert np.allclose(m.fz, GRAVITY + az)


def test_tilt_projects_gravity_sideways(buoy):
    t = np.linspace(0, 120, 6000)
    m = buoy.specific_force(t, np.zeros_like(t), (0.0, 0.0))
    # Horizontal axes pick up large gravity components; z shrinks.
    assert m.fx.std() > 0.3
    assert np.all(m.fz <= GRAVITY + 1e-9)


def test_heave_gain_low_frequency_unity(buoy):
    assert buoy.heave_gain(0.01) > 0.99


def test_heave_gain_rolls_off(buoy):
    assert buoy.heave_gain(buoy.heave_corner_hz) == pytest.approx(
        1.0 / np.sqrt(2.0)
    )
    assert buoy.heave_gain(5.0) < 0.05


def test_heave_gain_vectorised(buoy):
    g = buoy.heave_gain(np.array([0.1, 0.6, 2.0]))
    assert g.shape == (3,)
    assert np.all(np.diff(g) < 0)


def test_horizontal_accel_added(buoy):
    t = np.linspace(0, 10, 500)
    ah = np.ones_like(t)
    with_h = buoy.specific_force(t, np.zeros_like(t), (ah, ah))
    without = buoy.specific_force(t, np.zeros_like(t), (0.0, 0.0))
    assert np.allclose(with_h.fx - without.fx, 1.0)
    assert np.allclose(with_h.fy - without.fy, 1.0)


def test_z_only_motion_has_the_three_axis_fz(buoy):
    # Without horizontal surface motion no x/y axis is built, and fz is
    # the three-axis projection's bit for bit.
    t = np.arange(3000) / 50.0
    az = 0.4 * np.sin(2 * np.pi * 0.2 * t)
    z_only = buoy.specific_force(t, az)
    full = buoy.specific_force(t, az, (np.ones_like(t), -np.ones_like(t)))
    assert z_only.fx is None and z_only.fy is None
    assert np.array_equal(z_only.fz, full.fz)


def test_motion_needs_both_horizontal_axes_or_neither():
    t = np.zeros(3)
    with pytest.raises(ConfigurationError, match="together"):
        BuoyMotion(t=t, fx=t, fy=None, fz=t)
    with pytest.raises(ConfigurationError, match="length"):
        BuoyMotion(t=t, fx=None, fy=None, fz=np.zeros(4))


def test_invalid_parameters_rejected():
    with pytest.raises(ConfigurationError):
        Buoy(Position(0, 0), drift_radius_m=-1.0)
    with pytest.raises(ConfigurationError):
        Buoy(Position(0, 0), tilt_rms_deg=-1.0)
    with pytest.raises(ConfigurationError):
        Buoy(Position(0, 0), heave_corner_hz=0.0)
    with pytest.raises(ConfigurationError, match="period"):
        Buoy(Position(0, 0), tilt_period_s=0.0)
    with pytest.raises(ConfigurationError, match="period"):
        Buoy(Position(0, 0), drift_period_s=-1.0)

"""Tests for ship speed estimation (eqs. 14-16)."""

from __future__ import annotations

import math

import pytest

from repro.constants import (
    KELVIN_CUSP_ANGLE_RAD,
    SPEED_GEOMETRY_THETA_RAD,
)
from repro.errors import EstimationError
from repro.detection.speed import (
    SpeedEstimate,
    estimate_heading_alpha_rad,
    estimate_ship_speed,
    moving_direction,
)
from repro.physics.kelvin import KelvinWake
from repro.types import Position


def _timestamps(alpha_deg, speed, d=25.0, theta=SPEED_GEOMETRY_THETA_RAD):
    """Forward-model the four Fig. 10 timestamps from the Kelvin wake."""
    alpha = math.radians(alpha_deg)
    origin = Position(
        d / 2.0 - 150.0 * math.cos(alpha), d / 2.0 - 150.0 * math.sin(alpha)
    )
    wake = KelvinWake(
        origin=origin, heading_rad=alpha, speed_mps=speed, half_angle_rad=theta
    )
    nodes = {
        "i": (Position(0, 0), Position(0, d)),
        "j": (Position(d, 0), Position(d, d)),
    }
    lat = lambda p: wake.track_coordinates(p)[1]
    if lat(nodes["i"][0]) > 0:
        port, star = nodes["i"], nodes["j"]
    else:
        port, star = nodes["j"], nodes["i"]
    t1, t2 = wake.arrival_time(port[0]), wake.arrival_time(port[1])
    t3, t4 = wake.arrival_time(star[0]), wake.arrival_time(star[1])
    if t1 > t2:
        t1, t2 = t2, t1
        t3, t4 = t4, t3
    return t1, t2, t3, t4


class TestInversion:
    # alpha = 70 deg is excluded: there eq. 16's second pair degenerates
    # (sin(alpha - 70) = 0 and t4 = t3), the paper's known singular case.
    @pytest.mark.parametrize("alpha_deg", [50.0, 60.0, 65.0, 80.0])
    @pytest.mark.parametrize("speed", [5.144, 8.23])
    def test_exact_recovery_with_paper_theta(self, alpha_deg, speed):
        t1, t2, t3, t4 = _timestamps(alpha_deg, speed)
        est = estimate_ship_speed(25.0, t1, t2, t3, t4)
        assert est.speed_pair_i_mps == pytest.approx(speed, rel=1e-6)
        assert est.speed_pair_j_mps == pytest.approx(speed, rel=1e-6)
        assert abs(est.alpha_deg) == pytest.approx(alpha_deg, abs=0.01)

    def test_true_kelvin_angle_gives_small_bias(self):
        # Generating with 19 deg 28 min but inverting with 20 deg (the
        # paper's approximation) biases the estimate by < 5 %.
        t1, t2, t3, t4 = _timestamps(60.0, 5.144, theta=KELVIN_CUSP_ANGLE_RAD)
        est = estimate_ship_speed(25.0, t1, t2, t3, t4)
        assert est.speed_mean_mps == pytest.approx(5.144, rel=0.05)

    def test_timestamp_jitter_within_paper_error_band(self):
        t1, t2, t3, t4 = _timestamps(55.0, 5.144)
        est = estimate_ship_speed(25.0, t1 + 0.2, t2 - 0.2, t3 + 0.2, t4 - 0.2)
        pair = (est.speed_pair_i_mps, est.speed_pair_j_mps)
        assert min(pair) > 0.7 * 5.144
        assert max(pair) < 1.4 * 5.144

    def test_estimate_properties(self):
        est = SpeedEstimate(4.0, 6.0, math.radians(60.0))
        assert est.speed_mean_mps == 5.0
        assert est.alpha_deg == pytest.approx(60.0)


class TestAlphaFormula:
    def test_alpha_from_timestamps(self):
        t1, t2, t3, t4 = _timestamps(65.0, 6.0)
        alpha = estimate_heading_alpha_rad(t1, t2, t3, t4)
        assert abs(math.degrees(alpha)) == pytest.approx(65.0, abs=0.01)

    def test_perpendicular_crossing_degenerate(self):
        # t2 + t3 == t1 + t4 -> alpha = pi/2.
        assert estimate_heading_alpha_rad(0.0, 2.0, 1.0, 3.0) == math.pi / 2


class TestDegenerateInputs:
    def test_zero_dt_rejected(self):
        with pytest.raises(EstimationError):
            estimate_ship_speed(25.0, 1.0, 1.0, 2.0, 3.0)

    def test_bad_spacing_rejected(self):
        with pytest.raises(EstimationError):
            estimate_ship_speed(0.0, 1.0, 2.0, 3.0, 4.0)

    def test_bad_theta_rejected(self):
        with pytest.raises(EstimationError):
            estimate_ship_speed(25.0, 1.0, 2.0, 3.0, 4.0, theta_rad=2.0)

    def test_inconsistent_geometry_rejected(self):
        # Timestamps that imply negative speed solutions.
        with pytest.raises(EstimationError):
            estimate_ship_speed(25.0, 2.0, 1.0, 1.0, 2.0)


class TestMovingDirection:
    def test_forward(self):
        t1, t2, t3, t4 = _timestamps(60.0, 5.0)
        assert moving_direction(t1, t2, t3, t4) == 1

    def test_reverse(self):
        assert moving_direction(10.0, 5.0, 9.0, 4.0) == -1

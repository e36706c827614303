"""Tests for the Kelvin wake model (paper Sec. II)."""

from __future__ import annotations

import math

import pytest

from repro.constants import KELVIN_CUSP_ANGLE_RAD
from repro.errors import ConfigurationError, GeometryError
from repro.physics.kelvin import (
    DEEP_WATER_THETA_DEG,
    KelvinWake,
    cusp_wave_period,
    default_amplitude_coefficient,
    depth_froude_number,
    divergent_wave_height,
    transverse_wave_height,
    wake_propagation_angle_deg,
    wake_wave_speed,
)
from repro.types import Position


class TestFroudeAndTheta:
    def test_froude_number(self):
        assert math.isclose(
            depth_froude_number(5.0, 10.0), 5.0 / math.sqrt(9.80665 * 10.0)
        )

    def test_theta_deep_water_limit(self):
        # F_d -> 0 gives the classic 35.27 deg.
        assert math.isclose(
            wake_propagation_angle_deg(0.0), DEEP_WATER_THETA_DEG, rel_tol=1e-5
        )

    def test_theta_vanishes_at_critical(self):
        assert wake_propagation_angle_deg(0.999) < 1.0

    def test_theta_monotone_decreasing(self):
        values = [wake_propagation_angle_deg(f) for f in (0.1, 0.5, 0.9)]
        assert values == sorted(values, reverse=True)

    def test_supercritical_rejected(self):
        with pytest.raises(ConfigurationError):
            wake_propagation_angle_deg(1.0)

    def test_wake_wave_speed_eq2(self):
        v = 5.0
        expected = v * math.cos(math.radians(DEEP_WATER_THETA_DEG))
        assert math.isclose(wake_wave_speed(v), expected)

    def test_wake_wave_speed_finite_depth_faster(self):
        # Near-critical F_d -> Theta smaller -> W_v closer to V.
        v = 8.0
        assert wake_wave_speed(v, depth_m=8.0) > wake_wave_speed(v)

    def test_cusp_period_10_knots(self):
        # ~2.7 s for a 10 knot ship (the "low frequency" of Fig. 7).
        t = cusp_wave_period(10 * 0.514444)
        assert 2.4 < t < 3.0

    def test_cusp_period_scales_with_speed(self):
        assert cusp_wave_period(8.0) > cusp_wave_period(5.0)


class TestDecayLaws:
    def test_divergent_cube_root_decay(self):
        h25 = divergent_wave_height(1.0, 25.0)
        h200 = divergent_wave_height(1.0, 200.0)
        assert math.isclose(h25 / h200, 2.0)  # (200/25)^(1/3) = 2

    def test_transverse_square_root_decay(self):
        h25 = transverse_wave_height(1.0, 25.0)
        h100 = transverse_wave_height(1.0, 100.0)
        assert math.isclose(h25 / h100, 2.0)

    def test_transverse_decays_faster_than_divergent(self):
        # Paper: "transverse waves decay much faster ... only divergent
        # waves can be observed far from the vessel".
        ratio_div = divergent_wave_height(1.0, 400.0) / divergent_wave_height(
            1.0, 25.0
        )
        ratio_tr = transverse_wave_height(1.0, 400.0) / transverse_wave_height(
            1.0, 25.0
        )
        assert ratio_tr < ratio_div

    def test_zero_distance_rejected(self):
        with pytest.raises(GeometryError):
            divergent_wave_height(1.0, 0.0)

    def test_coefficient_scales_with_v_squared(self):
        assert math.isclose(
            default_amplitude_coefficient(10.0)
            / default_amplitude_coefficient(5.0),
            4.0,
        )


class TestWakeGeometry:
    @pytest.fixture
    def wake(self):
        return KelvinWake(
            origin=Position(0, 0), heading_rad=0.0, speed_mps=5.0, t0=0.0
        )

    def test_ship_position(self, wake):
        p = wake.ship_position(10.0)
        assert math.isclose(p.x, 50.0)
        assert math.isclose(p.y, 0.0)

    def test_track_coordinates(self, wake):
        along, lateral = wake.track_coordinates(Position(30.0, 10.0))
        assert math.isclose(along, 30.0)
        assert math.isclose(lateral, 10.0)

    def test_lateral_sign_convention(self):
        # Heading +y: port side is -x.
        wake = KelvinWake(
            origin=Position(0, 0), heading_rad=math.pi / 2, speed_mps=5.0
        )
        _, lat = wake.track_coordinates(Position(-10.0, 0.0))
        assert lat > 0

    def test_contains_behind_only(self, wake):
        # Ship at x=50 at t=10; point ahead of it is not in the wedge.
        assert not wake.contains(Position(60.0, 0.0), 10.0)
        assert wake.contains(Position(30.0, 1.0), 10.0)

    def test_contains_respects_wedge_angle(self, wake):
        t = 20.0  # ship at x = 100
        behind = 50.0
        max_lateral = behind * math.tan(KELVIN_CUSP_ANGLE_RAD)
        assert wake.contains(Position(50.0, max_lateral * 0.95), t)
        assert not wake.contains(Position(50.0, max_lateral * 1.05), t)

    def test_arrival_time_after_abeam(self, wake):
        p = Position(100.0, 25.0)
        assert wake.arrival_time(p) > wake.closest_approach_time(p)

    def test_arrival_delay_formula(self, wake):
        p = Position(100.0, 25.0)
        delay = wake.arrival_time(p) - wake.closest_approach_time(p)
        expected = 25.0 / (5.0 * math.tan(KELVIN_CUSP_ANGLE_RAD))
        assert math.isclose(delay, expected)

    def test_arrival_consistent_with_contains(self, wake):
        p = Position(100.0, 20.0)
        t_arr = wake.arrival_time(p)
        assert not wake.contains(p, t_arr - 0.5)
        assert wake.contains(p, t_arr + 0.5)

    def test_wave_height_decays_with_lateral_distance(self, wake):
        near = wake.wave_height_at(Position(0.0, 10.0))
        far = wake.wave_height_at(Position(0.0, 80.0))
        assert near > far

    def test_wave_height_clamped_near_hull(self, wake):
        h0 = wake.wave_height_at(Position(0.0, 0.0))
        h1 = wake.wave_height_at(Position(0.0, 1.0))
        assert math.isclose(h0, h1)  # both clamped at MIN_HEIGHT_LATERAL_M

    def test_train_duration_paper_scale(self):
        # 2-3 s at the paper's 25 m deployment scale for ~10 knots.
        wake = KelvinWake(
            origin=Position(0, 0), heading_rad=0.0, speed_mps=10 * 0.514444
        )
        d = wake.train_duration_at(Position(0.0, 25.0))
        assert 2.0 < d < 3.2

    def test_invalid_speed_rejected(self):
        with pytest.raises(ConfigurationError):
            KelvinWake(origin=Position(0, 0), heading_rad=0.0, speed_mps=0.0)

    def test_invalid_half_angle_rejected(self):
        with pytest.raises(ConfigurationError):
            KelvinWake(
                origin=Position(0, 0),
                heading_rad=0.0,
                speed_mps=5.0,
                half_angle_rad=2.0,
            )

"""Tests for the canonical paper presets."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.scenario.presets import (
    DEFAULT_ALPHA_DEG,
    PAPER_SPEEDS_KNOTS,
    paper_deployment,
    paper_scenario,
    paper_ship,
)


def test_paper_deployment_dimensions():
    dep = paper_deployment(seed=1)
    assert dep.rows == 6
    assert dep.columns == 5
    assert dep.spacing_m == 25.0


def test_paper_speeds():
    assert PAPER_SPEEDS_KNOTS == (10.0, 16.0)


def test_ship_crosses_between_columns():
    dep = paper_deployment(seed=1)
    ship = paper_ship(dep, column_gap=1.5)
    line = ship.travel_line()
    # At the grid's vertical midpoint the line sits between columns 1, 2.
    mid_y = (dep.rows - 1) * dep.spacing_m / 2.0
    t = ship.time_at_point(dep.center())
    # The crossing point's x must be strictly between the two columns.
    from repro.types import Position

    cross = Position(
        dep.origin.x + 1.5 * dep.spacing_m, dep.origin.y + mid_y
    )
    assert line.distance(cross) < 1e-6


def test_crossing_time_honoured():
    dep = paper_deployment(seed=1)
    ship = paper_ship(dep, cross_time_s=180.0)
    mid_y = (dep.rows - 1) * dep.spacing_m / 2.0
    from repro.types import Position

    cross = Position(dep.origin.x + 1.5 * dep.spacing_m, dep.origin.y + mid_y)
    assert ship.time_at_point(cross) == pytest.approx(180.0, abs=1.0)


def test_default_angle_steep():
    # The Fig. 10 geometry requires a steep crossing (> 45 deg).
    assert DEFAULT_ALPHA_DEG > 45.0


def test_wake_factor_scales_coefficient():
    dep = paper_deployment(seed=1)
    weak = paper_ship(dep, wake_factor=0.5)
    strong = paper_ship(dep, wake_factor=1.5)
    assert strong.wake_coefficient == pytest.approx(
        3.0 * weak.wake_coefficient
    )


def test_paper_scenario_bundle():
    dep, ship, synth = paper_scenario(seed=2, duration_s=300.0)
    assert len(dep) == 30
    assert synth.duration_s == 300.0
    assert ship.speed_knots == 10.0


def test_invalid_alpha_rejected():
    dep = paper_deployment(seed=1)
    with pytest.raises(ConfigurationError):
        paper_ship(dep, alpha_deg=0.0)

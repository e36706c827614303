"""Property-based tests for the physics substrate."""

from __future__ import annotations

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.physics.kelvin import (
    KelvinWake,
    divergent_wave_height,
    transverse_wave_height,
    wake_propagation_angle_deg,
    wake_wave_speed,
)
from repro.physics.wake_train import WakeTrain
from repro.types import Position


@given(st.floats(0.0, 0.99, allow_nan=False))
def test_theta_within_kelvin_limit(fd):
    theta = wake_propagation_angle_deg(fd)
    assert 0.0 <= theta <= 35.27 + 1e-9


@given(st.floats(0.1, 20.0, allow_nan=False))
def test_wake_speed_slower_than_ship(v):
    assert 0.0 < wake_wave_speed(v) < v


@given(
    st.floats(0.01, 100.0, allow_nan=False),
    st.floats(0.1, 1e4, allow_nan=False),
)
def test_decay_laws_monotone(coeff, d):
    d2 = d * 2.0
    assert divergent_wave_height(coeff, d2) < divergent_wave_height(coeff, d)
    assert transverse_wave_height(coeff, d2) < transverse_wave_height(coeff, d)


@given(
    st.floats(0.01, 100.0, allow_nan=False),
    st.floats(1.0, 1e4, allow_nan=False),
)
def test_transverse_decays_at_least_as_fast(coeff, d):
    ratio_div = divergent_wave_height(coeff, 2 * d) / divergent_wave_height(
        coeff, d
    )
    ratio_tr = transverse_wave_height(coeff, 2 * d) / transverse_wave_height(
        coeff, d
    )
    assert ratio_tr <= ratio_div + 1e-12


@given(
    st.floats(0.5, 15.0, allow_nan=False),
    st.floats(-math.pi, math.pi, allow_nan=False),
    st.floats(-400.0, 400.0, allow_nan=False),
    st.floats(-400.0, 400.0, allow_nan=False),
)
@settings(max_examples=50)
def test_arrival_never_before_abeam(speed, heading, px, py):
    wake = KelvinWake(
        origin=Position(0.0, 0.0), heading_rad=heading, speed_mps=speed
    )
    p = Position(px, py)
    assert wake.arrival_time(p) >= wake.closest_approach_time(p) - 1e-9


@given(
    st.floats(0.5, 15.0, allow_nan=False),
    st.floats(-300.0, 300.0, allow_nan=False),
    st.floats(1.0, 300.0, allow_nan=False),
)
@settings(max_examples=50)
def test_point_inside_wedge_after_arrival(speed, px, lateral):
    wake = KelvinWake(
        origin=Position(0.0, 0.0), heading_rad=0.0, speed_mps=speed
    )
    p = Position(px, lateral)
    t_arr = wake.arrival_time(p)
    assert wake.contains(p, t_arr + 1.0)


@given(
    st.floats(0.01, 2.0, allow_nan=False),
    st.floats(0.5, 10.0, allow_nan=False),
    st.floats(0.5, 10.0, allow_nan=False),
)
@settings(max_examples=50)
def test_wake_train_elevation_bounded(amplitude, period, duration):
    train = WakeTrain(
        arrival_time=0.0,
        amplitude=amplitude,
        period=period,
        duration=duration,
    )
    t = np.linspace(-1.0, duration + 1.0, 2000)
    assert np.abs(train.elevation(t)).max() <= amplitude + 1e-9

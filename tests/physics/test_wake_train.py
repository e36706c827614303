"""Tests for the wake train (enveloped packet) model."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.physics.kelvin import KelvinWake
from repro.physics.wake_train import WakeTrain
from repro.types import Position
from tests.physics.oracles import full_grid_elevation, full_grid_wake


@pytest.fixture
def train():
    return WakeTrain(
        arrival_time=100.0,
        amplitude=0.2,
        period=2.7,
        duration=2.5,
        chirp=-0.01,
    )


def test_zero_outside_support(train):
    t = np.array([99.0, 102.6, 200.0])
    assert np.all(train.elevation(t) == 0.0)
    assert np.all(train.vertical_acceleration(t) == 0.0)


def test_elevation_bounded_by_amplitude(train):
    t = np.linspace(99, 104, 5000)
    assert np.abs(train.elevation(t)).max() <= train.amplitude + 1e-12


def test_envelope_starts_and_ends_at_zero(train):
    eps = 1e-9
    assert abs(train.elevation(np.array([100.0 + eps]))[0]) < 1e-6
    assert abs(train.elevation(np.array([102.5 - eps]))[0]) < 1e-4


def test_acceleration_matches_numerical_second_derivative(train):
    dt = 1e-4
    t = np.arange(100.2, 102.3, dt)
    eta = train.elevation(t)
    acc = train.vertical_acceleration(t)
    num = np.gradient(np.gradient(eta, dt), dt)
    err = np.abs(num[5:-5] - acc[5:-5]).max()
    assert err < 0.01 * np.abs(acc).max()


def test_peak_acceleration_prediction_order(train):
    t = np.linspace(100, 102.5, 20000)
    measured = np.abs(train.vertical_acceleration(t)).max()
    # The carrier term A w^2 at the envelope top dominates; the packet
    # is short (envelope curvature matters), so allow 2x.
    predicted = train.amplitude * (2.0 * math.pi / train.period) ** 2
    assert 0.5 * predicted < measured < 2.5 * predicted


def test_from_wake_consistency():
    wake = KelvinWake(
        origin=Position(0, 0), heading_rad=0.0, speed_mps=5.144
    )
    point = Position(100.0, 25.0)
    train = WakeTrain.from_wake(wake, point)
    assert math.isclose(train.arrival_time, wake.arrival_time(point))
    assert math.isclose(train.period, wake.wave_period())
    assert math.isclose(
        train.amplitude, 0.5 * wake.wave_height_at(point)
    )
    assert train.chirp < 0  # dispersion: later waves shorter


def test_carrier_frequency(train):
    assert math.isclose(train.carrier_frequency_hz, 1.0 / 2.7)


def test_oscillates_within_envelope(train):
    t = np.linspace(100, 102.5, 2000)
    eta = train.elevation(t)
    signs = np.sign(eta[np.abs(eta) > 1e-6])
    assert (np.diff(signs) != 0).sum() >= 1  # at least one zero crossing


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(arrival_time=0, amplitude=-1.0, period=2.0, duration=2.0),
        dict(arrival_time=0, amplitude=1.0, period=0.0, duration=2.0),
        dict(arrival_time=0, amplitude=1.0, period=2.0, duration=0.0),
    ],
)
def test_invalid_parameters_rejected(kwargs):
    with pytest.raises(ConfigurationError):
        WakeTrain(**kwargs)


def test_support_evaluation_equals_full_grid_oracle():
    """Packets evaluated on their support only are bit-identical."""
    t = np.arange(20_000) / 50.0  # 400 s at 50 Hz
    packet = dict(amplitude=0.2, period=2.7, duration=2.5, chirp=-0.01)
    wake = KelvinWake(origin=Position(0, 0), heading_rad=0.0, speed_mps=5.144)
    trains = [
        WakeTrain(arrival_time=123.45, **packet),  # inside the record
        WakeTrain(arrival_time=-1.3, **packet),  # straddles t0
        WakeTrain(arrival_time=398.7, **packet),  # straddles the end
        WakeTrain(arrival_time=512.0, **packet),  # entirely outside
        WakeTrain.from_wake(wake, Position(100.0, 25.0)),
    ]
    for train in trains:
        assert np.array_equal(
            train.vertical_acceleration(t), full_grid_wake(train, t)
        )
        assert np.array_equal(train.elevation(t), full_grid_elevation(train, t))
    assert all(np.any(tr.vertical_acceleration(t) != 0.0) for tr in trains[:3])
    assert not np.any(trains[3].vertical_acceleration(t))

"""Tests for the radio channel model."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.network.channel import Channel, ChannelConfig
from repro.types import Position


@pytest.fixture
def channel():
    return Channel(seed=1)


def test_rx_power_decreases_with_distance(channel):
    a = Position(0, 0)
    near = channel.rx_power_dbm(0, 1, a, Position(10, 0))
    far = channel.rx_power_dbm(0, 2, a, Position(100, 0))
    # Shadowing is per-link; compare medians via a no-shadow channel.
    flat = Channel(ChannelConfig(shadowing_sigma_db=0.0), seed=1)
    assert flat.rx_power_dbm(0, 1, a, Position(10, 0)) > flat.rx_power_dbm(
        0, 2, a, Position(100, 0)
    )


def test_shadowing_frozen_and_symmetric(channel):
    a, b = Position(0, 0), Position(30, 0)
    p1 = channel.delivery_probability(1, 2, a, b)
    p2 = channel.delivery_probability(1, 2, a, b)
    p3 = channel.delivery_probability(2, 1, b, a)
    assert p1 == p2 == p3


def test_grid_spacing_link_quality():
    # The paper's 25 m neighbours must be solid, 100 m links near-dead.
    flat = Channel(ChannelConfig(shadowing_sigma_db=0.0), seed=0)
    a = Position(0, 0)
    assert flat.delivery_probability(0, 1, a, Position(25, 0)) > 0.9
    assert flat.delivery_probability(0, 2, a, Position(100, 0)) < 0.2


def test_base_loss_rate_scales_probability():
    cfg = ChannelConfig(shadowing_sigma_db=0.0, base_loss_rate=0.5)
    lossy = Channel(cfg, seed=0)
    clean = Channel(ChannelConfig(shadowing_sigma_db=0.0), seed=0)
    a, b = Position(0, 0), Position(25, 0)
    assert lossy.delivery_probability(0, 1, a, b) == pytest.approx(
        0.5 * clean.delivery_probability(0, 1, a, b)
    )


def test_attempt_delivery_statistics(channel):
    a, b = Position(0, 0), Position(25, 0)
    p = channel.delivery_probability(0, 1, a, b)
    outcomes = [channel.attempt_delivery(0, 1, a, b) for _ in range(3000)]
    assert np.mean(outcomes) == pytest.approx(p, abs=0.04)


def test_airtime_scales_with_size(channel):
    assert channel.airtime_s(100) > channel.airtime_s(20)
    # 39 bytes at 250 kbps ~ 1.25 ms + latency floor.
    assert channel.airtime_s(39) == pytest.approx(0.001 + 39 * 8 / 250e3)


def test_airtime_rejects_bad_size(channel):
    with pytest.raises(ConfigurationError):
        channel.airtime_s(0)


def test_config_validation():
    with pytest.raises(ConfigurationError):
        ChannelConfig(shadowing_sigma_db=-1.0)
    with pytest.raises(ConfigurationError):
        ChannelConfig(base_loss_rate=1.0)

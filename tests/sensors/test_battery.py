"""Tests for the battery/energy model."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.sensors.battery import Battery, EnergyCosts


def test_initial_state():
    b = Battery(100.0)
    assert b.remaining_j == 100.0
    assert not b.depleted
    assert b.fraction_remaining == 1.0


def test_draw_reduces_energy():
    b = Battery(100.0)
    assert b.draw(30.0, "tx")
    assert b.remaining_j == pytest.approx(70.0)


def test_breakdown_by_category():
    b = Battery(100.0)
    b.draw(10.0, "tx")
    b.draw(5.0, "tx")
    b.draw(2.0, "cpu")
    assert b.breakdown() == {"tx": 15.0, "cpu": 2.0}


def test_depletion_blocks_further_draws():
    b = Battery(10.0)
    assert b.draw(15.0, "tx")  # final draw may overshoot
    assert b.depleted
    assert not b.draw(1.0, "tx")


def test_fraction_never_negative():
    b = Battery(10.0)
    b.draw(100.0, "tx")
    assert b.fraction_remaining == 0.0


def test_negative_draw_rejected():
    with pytest.raises(ConfigurationError):
        Battery(10.0).draw(-1.0, "tx")


def test_negative_draw_rejected_through_wrappers():
    b = Battery(10.0)
    with pytest.raises(ConfigurationError):
        b.draw_samples(-1)
    with pytest.raises(ConfigurationError):
        b.draw_cpu(-0.5)
    with pytest.raises(ConfigurationError):
        b.draw_tx(-8)
    # Nothing was billed by the rejected draws.
    assert b.remaining_j == 10.0


def test_negative_draw_rejected_even_when_depleted():
    b = Battery(1.0)
    b.draw(5.0, "tx")
    assert b.depleted
    with pytest.raises(ConfigurationError):
        b.draw(-1.0, "tx")


class TestAcceleratedDrain:
    def test_multiplier_scales_draws(self):
        b = Battery(100.0)
        b.accelerate_drain(4.0)
        b.draw(1.0, "tx")
        assert b.remaining_j == pytest.approx(96.0)
        assert b.breakdown()["tx"] == pytest.approx(4.0)

    def test_factors_compose_multiplicatively(self):
        b = Battery(100.0)
        b.accelerate_drain(2.0)
        b.accelerate_drain(3.0)
        assert b.drain_multiplier == pytest.approx(6.0)

    def test_default_multiplier_is_identity(self):
        b = Battery(100.0)
        assert b.drain_multiplier == 1.0
        b.draw(1.0, "tx")
        assert b.remaining_j == pytest.approx(99.0)

    def test_nonpositive_factor_rejected(self):
        with pytest.raises(ConfigurationError):
            Battery(100.0).accelerate_drain(0.0)
        with pytest.raises(ConfigurationError):
            Battery(100.0).accelerate_drain(-2.0)

    def test_drained_battery_still_blocks_when_depleted(self):
        b = Battery(1.0)
        b.accelerate_drain(10.0)
        assert b.draw(0.2, "tx")  # costs 2.0 -> dies mid-operation
        assert b.depleted
        assert not b.draw(0.001, "tx")


def test_convenience_wrappers_use_costs():
    costs = EnergyCosts(
        sample_j=1.0,
        cpu_j_per_s=2.0,
        tx_j_per_byte=3.0,
        rx_j_per_byte=4.0,
        idle_j_per_s=5.0,
        sleep_j_per_s=6.0,
    )
    b = Battery(1000.0, costs)
    b.draw_samples(2)
    b.draw_cpu(1.0)
    b.draw_tx(1)
    b.draw_rx(1)
    assert b.breakdown() == {
        "sampling": 2.0,
        "cpu": 2.0,
        "tx": 3.0,
        "rx": 4.0,
    }


def test_radio_dominates_default_budget():
    # The Sec. IV-A design argument: transmitting raw samples is far
    # costlier than transmitting extracted features.
    costs = EnergyCosts()
    # One second of raw 3-axis samples at 50 Hz, 6 bytes each:
    raw_bytes = 50 * 6
    raw_cost = raw_bytes * costs.tx_j_per_byte
    # One NodeReport-sized feature message instead:
    feature_cost = 24 * costs.tx_j_per_byte
    assert raw_cost > 10 * feature_cost


def test_default_lifetime_scale():
    # 10 kJ at idle (~3 mW) lasts on the order of a month.
    b = Battery()
    days = b.remaining_j / (b.costs.idle_j_per_s * 86400.0)
    assert 10 < days < 100


def test_invalid_capacity():
    with pytest.raises(ConfigurationError):
        Battery(0.0)


def test_invalid_costs():
    with pytest.raises(ConfigurationError):
        EnergyCosts(sample_j=-1.0)

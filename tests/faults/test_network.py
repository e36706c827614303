"""Tests for the channel fault decorator and delivery hooks."""

from __future__ import annotations

from repro.faults.network import DeliveryFaults, FaultyChannel, GilbertElliott
from repro.faults.plan import (
    BurstLoss,
    FaultStats,
    LinkBlackout,
    MessageDelay,
    MessageDuplication,
)
from repro.network.channel import Channel, ChannelConfig
from repro.network.simulator import Simulator
from repro.rng import derive_rng
from repro.types import Position

A = Position(0.0, 0.0)
B = Position(10.0, 0.0)


def _channel():
    return Channel(ChannelConfig(shadowing_sigma_db=0.0), seed=0)


class TestGilbertElliott:
    def test_good_state_with_zero_loss_never_drops(self):
        ge = GilbertElliott(
            BurstLoss(p_good_to_bad=0.0, good_loss_rate=0.0),
            derive_rng(0, "ge"),
        )
        assert not any(ge.frame_lost() for _ in range(200))
        assert not ge.in_bad_state

    def test_forced_bad_state_with_total_loss_drops_everything(self):
        ge = GilbertElliott(
            BurstLoss(
                p_good_to_bad=1.0, p_bad_to_good=0.0, bad_loss_rate=1.0
            ),
            derive_rng(0, "ge"),
        )
        assert all(ge.frame_lost() for _ in range(200))
        assert ge.in_bad_state

    def test_chain_visits_both_states(self):
        ge = GilbertElliott(BurstLoss(), derive_rng(1, "ge"))
        states = set()
        for _ in range(2000):
            ge.frame_lost()
            states.add(ge.in_bad_state)
        assert states == {True, False}

    def test_loss_rate_between_states(self):
        spec = BurstLoss(
            p_good_to_bad=0.05,
            p_bad_to_good=0.2,
            bad_loss_rate=0.9,
            good_loss_rate=0.0,
        )
        ge = GilbertElliott(spec, derive_rng(2, "ge"))
        lost = sum(ge.frame_lost() for _ in range(5000))
        # Stationary bad-state share is 0.05/0.25 = 0.2 -> ~18 % loss.
        assert 0.10 <= lost / 5000 <= 0.30


class TestFaultyChannel:
    def test_blackout_window_kills_frames(self):
        stats = FaultStats()
        ch = FaultyChannel(
            _channel(),
            blackouts=(LinkBlackout(1, 2, start_s=10.0, duration_s=5.0),),
            stats=stats,
        )
        clock = [0.0]
        ch.bind_clock(lambda: clock[0])
        assert ch.attempt_delivery(1, 2, A, B)
        clock[0] = 12.0
        assert not ch.attempt_delivery(1, 2, A, B)
        assert not ch.attempt_delivery(2, 1, B, A)
        assert ch.attempt_delivery(1, 3, A, B)
        clock[0] = 20.0
        assert ch.attempt_delivery(1, 2, A, B)
        assert stats.frames_blackout_lost == 2

    def test_burst_applies_only_inside_window(self):
        stats = FaultStats()
        ch = FaultyChannel(
            _channel(),
            burst=BurstLoss(
                start_s=100.0,
                duration_s=50.0,
                p_good_to_bad=1.0,
                p_bad_to_good=0.0,
                bad_loss_rate=1.0,
            ),
            rng=derive_rng(0, "burst"),
            stats=stats,
        )
        clock = [0.0]
        ch.bind_clock(lambda: clock[0])
        assert ch.attempt_delivery(1, 2, A, B)
        assert stats.frames_burst_lost == 0
        clock[0] = 120.0
        assert not ch.attempt_delivery(1, 2, A, B)
        assert stats.frames_burst_lost == 1

    def test_delegates_topology_queries_to_healthy_channel(self):
        inner = _channel()
        ch = FaultyChannel(inner, burst=BurstLoss(), rng=derive_rng(0, "b"))
        assert ch.delivery_probability(1, 2, A, B) == (
            inner.delivery_probability(1, 2, A, B)
        )
        assert ch.config is inner.config

    def test_burst_composes_with_base_loss(self):
        # Burst loss layers on top: the inner SNR/base-loss draw still
        # runs for frames the burst spares.
        lossy = Channel(
            ChannelConfig(shadowing_sigma_db=0.0, base_loss_rate=0.5),
            seed=0,
        )
        ch = FaultyChannel(
            lossy,
            burst=BurstLoss(p_good_to_bad=0.0, good_loss_rate=0.0),
            rng=derive_rng(0, "b"),
        )
        ch.bind_clock(lambda: 0.0)
        delivered = sum(
            ch.attempt_delivery(1, 2, A, B) for _ in range(2000)
        )
        assert 0.4 <= delivered / 2000 <= 0.6


class TestDeliveryFaults:
    def _run(self, hook, n=200):
        sim = Simulator()
        arrivals: list[tuple[float, int]] = []

        def deliver(dst, frame):
            arrivals.append((sim.now, frame))

        for i in range(n):
            sim.schedule_at(float(i), hook.deliver, sim, 0, i, deliver)
        sim.run()
        return arrivals

    def test_duplication_delivers_twice(self):
        stats = FaultStats()
        hook = DeliveryFaults(
            duplication=MessageDuplication(probability=1.0, delay_s=0.5),
            rng=derive_rng(0, "d"),
            stats=stats,
        )
        arrivals = self._run(hook, n=10)
        assert len(arrivals) == 20
        assert stats.frames_duplicated == 10
        # Each frame arrives once at t and once at t + 0.5.
        times = sorted(t for t, f in arrivals if f == 3)
        assert times == [3.0, 3.5]

    def test_delay_defers_delivery(self):
        stats = FaultStats()
        hook = DeliveryFaults(
            delay=MessageDelay(probability=1.0, delay_s=2.0),
            rng=derive_rng(0, "d"),
            stats=stats,
        )
        arrivals = self._run(hook, n=5)
        assert len(arrivals) == 5
        assert stats.frames_delayed == 5
        assert all(t == i + 2.0 for (t, i) in arrivals)

    def test_probability_zero_window_identity(self):
        hook = DeliveryFaults(
            duplication=MessageDuplication(
                probability=1.0, delay_s=0.5, start_s=1e6
            ),
            rng=derive_rng(0, "d"),
        )
        arrivals = self._run(hook, n=5)
        assert len(arrivals) == 5

    def test_partial_probability_duplicates_some(self):
        stats = FaultStats()
        hook = DeliveryFaults(
            duplication=MessageDuplication(probability=0.3, delay_s=0.1),
            rng=derive_rng(3, "d"),
            stats=stats,
        )
        arrivals = self._run(hook, n=500)
        assert 500 < len(arrivals) < 1000
        assert stats.frames_duplicated == len(arrivals) - 500
        assert 0.2 <= stats.frames_duplicated / 500 <= 0.4

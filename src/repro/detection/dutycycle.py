"""Duty-cycled surveillance (paper Sec. IV-A).

"Some nodes in a group may keep active to perform a coarse detection
while other nodes sleep if the networks are densely deployed.  Upon a
positive detection is made, sleeping nodes should be activated and
increase the sampling rate to perform a more accurate detection."

:class:`DutyCycleController` implements that policy:

- at any instant a rotating subset of *sentinel* nodes samples at the
  full rate while the rest sleep;
- a sentinel alarm triggers a network wake-up: after a short wake-up
  latency every node is active for a hold period, then the schedule
  returns to sentinel rotation;
- :meth:`energy_summary` quantifies the lifetime gain, the reason the
  paper raises the scheme for "long-term surveillance".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.constants import SAMPLE_RATE_HZ
from repro.errors import ConfigurationError
from repro.sensors.battery import EnergyCosts
from repro.telemetry.events import CAT_DUTYCYCLE
from repro.telemetry.tracer import Tracer


@dataclass(frozen=True)
class DutyCycleConfig:
    """Policy parameters."""

    #: Fraction of nodes awake as sentinels at any time.
    sentinel_fraction: float = 0.25
    #: Sentinel set rotates this often (balances energy across nodes).
    rotation_period_s: float = 60.0
    #: Delay between a sentinel alarm and the fleet being fully awake.
    #: Positive: an alarm never wakes the fleet for its own window.
    wakeup_latency_s: float = 2.0
    #: Fully-awake duration following an alarm.
    hold_s: float = 180.0
    #: Sentinels sample at this reduced rate ("a coarse detection",
    #: Sec. IV-A); the wake-up "increase[s] the sampling rate" back to
    #: the full 50 Hz.  ``None`` keeps sentinels at the full rate.
    coarse_rate_hz: float | None = 10.0

    def __post_init__(self) -> None:
        if not 0.0 < self.sentinel_fraction <= 1.0:
            raise ConfigurationError(
                f"sentinel_fraction must be in (0, 1], got {self.sentinel_fraction}"
            )
        if self.rotation_period_s <= 0:
            raise ConfigurationError(
                f"rotation_period_s must be positive, got {self.rotation_period_s}"
            )
        if self.wakeup_latency_s <= 0:
            raise ConfigurationError(
                f"wakeup_latency_s must be positive, got {self.wakeup_latency_s}"
            )
        if self.hold_s <= 0:
            raise ConfigurationError(f"hold_s must be positive, got {self.hold_s}")
        if self.coarse_rate_hz is not None and self.coarse_rate_hz <= 0:
            raise ConfigurationError(
                f"coarse_rate_hz must be positive, got {self.coarse_rate_hz}"
            )


class DutyCycleController:
    """Tracks which nodes are awake when, and the resulting energy.

    The controller is deterministic: sentinel sets are chosen by
    round-robin over the sorted node ids, so every node carries the
    sentinel load equally over a full rotation cycle.
    """

    def __init__(
        self,
        node_ids: list[int],
        config: DutyCycleConfig | None = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        if not node_ids:
            raise ConfigurationError("need at least one node")
        self.node_ids = sorted(node_ids)
        self.config = config if config is not None else DutyCycleConfig()
        self.tracer = tracer
        n = len(self.node_ids)
        self._n_sentinels = max(int(round(n * self.config.sentinel_fraction)), 1)
        #: Alarm wake-up intervals [start, end), merged on insertion.
        self._wake_intervals: list[tuple[float, float]] = []

    @property
    def n_sentinels(self) -> int:
        """Sentinels awake per rotation slot."""
        return self._n_sentinels

    def sentinels_at(self, t: float) -> list[int]:
        """The sentinel set during the rotation slot containing ``t``."""
        slot = int(t // self.config.rotation_period_s)
        n = len(self.node_ids)
        start = (slot * self._n_sentinels) % n
        return [
            self.node_ids[(start + k) % n] for k in range(self._n_sentinels)
        ]

    def alarm(self, t: float) -> None:
        """Register a sentinel alarm: wake the fleet after the latency."""
        start = t + self.config.wakeup_latency_s
        end = start + self.config.hold_s
        merged: list[tuple[float, float]] = []
        for lo, hi in self._wake_intervals:
            if hi < start or lo > end:
                merged.append((lo, hi))
            else:
                start = min(start, lo)
                end = max(end, hi)
        merged.append((start, end))
        merged.sort()
        self._wake_intervals = merged
        if self.tracer is not None:
            self.tracer.emit(
                CAT_DUTYCYCLE,
                "wakeup",
                sim_time_s=t,
                wake_start_s=start,
                wake_end_s=end,
            )

    def in_wakeup(self, t: float) -> bool:
        """True while a fleet wake-up interval covers ``t``."""
        return any(lo <= t < hi for lo, hi in self._wake_intervals)

    def is_active(self, node_id: int, t: float) -> bool:
        """Whether ``node_id`` evaluates detection windows at time ``t``."""
        if node_id not in self.node_ids:
            raise ConfigurationError(f"unknown node {node_id}")
        if self.in_wakeup(t):
            return True
        return node_id in self.sentinels_at(t)

    # ------------------------------------------------------------------
    # Energy accounting
    # ------------------------------------------------------------------
    def active_fraction(self, t0: float, t1: float, dt: float = 1.0) -> float:
        """Fraction of node-time spent active over ``[t0, t1)``."""
        if t1 <= t0:
            raise ConfigurationError("need t1 > t0")
        total = 0
        active = 0
        t = t0
        while t < t1:
            for nid in self.node_ids:
                total += 1
                if self.is_active(nid, t):
                    active += 1
            t += dt
        return active / total

    def energy_summary(self, duration_s: float) -> dict[str, float]:
        """Estimated per-node energy with and without duty cycling [J].

        Uses the sentinel fraction as the steady-state active share
        (wake-ups are event-driven extras) and the default iMote2 cost
        model (:class:`~repro.sensors.battery.EnergyCosts`) at the
        paper's 50 Hz: an active node pays sampling + idle listening, a
        sleeping node pays only the sleep floor.  Sentinels sampling at
        the coarse rate pay proportionally less for sampling.
        """
        if duration_s <= 0:
            raise ConfigurationError("duration must be positive")
        c = EnergyCosts()
        always_on = duration_s * (
            SAMPLE_RATE_HZ * c.sample_j + c.idle_j_per_s
        )
        sentinel_rate = (
            self.config.coarse_rate_hz
            if self.config.coarse_rate_hz is not None
            else SAMPLE_RATE_HZ
        )
        sentinel_on = duration_s * (
            sentinel_rate * c.sample_j + c.idle_j_per_s
        )
        share = self._n_sentinels / len(self.node_ids)
        duty_cycled = share * sentinel_on + (1.0 - share) * (
            duration_s * c.sleep_j_per_s
        )
        return {
            "always_on_j": always_on,
            "duty_cycled_j": duty_cycled,
            "lifetime_gain": always_on / duty_cycled,
        }

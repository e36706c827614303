"""CSMA-style medium access with backoff, retries and collisions.

A deliberately compact MAC that reproduces the *effects* the cluster
protocol must tolerate — random access delay, collision under load, and
bounded retransmission — without simulating per-symbol radio state:

- each transmission waits a contention backoff drawn from a window that
  doubles per retry;
- while a frame is in the air, the medium around the transmitter is
  busy; a frame launched into a busy neighbourhood collides with
  probability ``collision_probability``;
- unicast frames are acknowledged and retried up to ``max_retries``;
  broadcast frames are fire-and-forget (802.15.4 semantics).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.errors import ConfigurationError, InternalError
from repro.network.channel import Channel
from repro.network.messages import Frame
from repro.network.simulator import Simulator
from repro.rng import RandomState, make_rng
from repro.telemetry.events import CAT_FRAME
from repro.telemetry.tracer import Tracer
from repro.types import Position


@dataclass(frozen=True)
class MacConfig:
    """MAC layer parameters."""

    base_backoff_s: float = 0.005
    max_retries: int = 3
    collision_probability: float = 0.8
    ack_timeout_s: float = 0.02

    def __post_init__(self) -> None:
        if self.base_backoff_s <= 0:
            raise ConfigurationError("base_backoff_s must be positive")
        if self.max_retries < 0:
            raise ConfigurationError("max_retries must be >= 0")
        if not 0.0 <= self.collision_probability <= 1.0:
            raise ConfigurationError(
                "collision_probability must be in [0, 1]"
            )
        if self.ack_timeout_s <= 0:
            raise ConfigurationError("ack_timeout_s must be positive")


class Mac:
    """The shared MAC instance (one per network, tracking the medium)."""

    def __init__(
        self,
        sim: Simulator,
        channel: Channel,
        config: MacConfig | None = None,
        seed: RandomState = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.sim = sim
        self.channel = channel
        self.config = config if config is not None else MacConfig()
        self._rng = make_rng(seed)
        #: node_id -> end time of its current transmission.
        self._busy_until: dict[int, float] = {}
        self.stats = MacStats()
        #: Optional telemetry tracer; None keeps emission sites free.
        self.tracer = tracer

    # ------------------------------------------------------------------
    def _medium_busy(self, around: int, neighbours: list[int]) -> bool:
        now = self.sim.now
        for nid in [around, *neighbours]:
            if self._busy_until.get(nid, -1.0) > now:
                return True
        return False

    def send(
        self,
        frame: Frame,
        src_pos: Position,
        dst_pos: Optional[Position],
        neighbours: list[int],
        on_delivered: Callable[[Frame], None],
        on_failed: Optional[Callable[[Frame], None]] = None,
        retry: int = 0,
    ) -> None:
        """Queue ``frame`` for transmission.

        ``dst_pos`` is required for unicast (link-quality draw);
        broadcast frames call ``on_delivered`` once per *potential*
        receiver decision made by the caller, so here broadcast simply
        transmits once and reports success (receivers filter by their
        own link draws via :meth:`unicast_survives`).
        """
        backoff_window = self.config.base_backoff_s * (2**retry)
        delay = float(self._rng.uniform(0, backoff_window))
        if self.tracer is not None:
            self.tracer.emit(
                CAT_FRAME,
                "backoff",
                sim_time_s=self.sim.now,
                node_id=frame.src,
                retry=retry,
                delay_s=delay,
            )
        self.sim.schedule(
            delay,
            self._transmit,
            frame,
            src_pos,
            dst_pos,
            neighbours,
            on_delivered,
            on_failed,
            retry,
        )

    def _transmit(
        self,
        frame: Frame,
        src_pos: Position,
        dst_pos: Optional[Position],
        neighbours: list[int],
        on_delivered: Callable[[Frame], None],
        on_failed: Optional[Callable[[Frame], None]],
        retry: int,
    ) -> None:
        airtime = self.channel.airtime_s(frame.size_bytes)
        collided = False
        if self._medium_busy(frame.src, neighbours):
            collided = self._rng.random() < self.config.collision_probability
        self._busy_until[frame.src] = self.sim.now + airtime
        self.stats.transmissions += 1
        if self.tracer is not None:
            self.tracer.emit(
                CAT_FRAME,
                "tx",
                sim_time_s=self.sim.now,
                node_id=frame.src,
                dst=frame.dst,
                size_bytes=frame.size_bytes,
                retry=retry,
                broadcast=frame.is_broadcast,
            )
            if collided:
                self.tracer.emit(
                    CAT_FRAME,
                    "collision",
                    sim_time_s=self.sim.now,
                    node_id=frame.src,
                    retry=retry,
                )

        if frame.is_broadcast:
            # Fire and forget; receiver-side link draws happen upstream.
            if collided:
                self.stats.collisions += 1
                if on_failed is not None:
                    self.sim.schedule(airtime, on_failed, frame)
                return
            self.sim.schedule(airtime, on_delivered, frame)
            return

        if dst_pos is None:
            raise InternalError("unicast needs the destination position")
        delivered = (not collided) and self.channel.attempt_delivery(
            frame.src, frame.dst, src_pos, dst_pos
        )
        if collided:
            self.stats.collisions += 1
        if delivered:
            if self.tracer is not None:
                self.tracer.emit(
                    CAT_FRAME,
                    "ack",
                    sim_time_s=self.sim.now,
                    node_id=frame.src,
                    dst=frame.dst,
                    retry=retry,
                )
            # ACK travels back; model its loss inside the same draw.
            self.sim.schedule(
                airtime + self.config.ack_timeout_s, on_delivered, frame
            )
            return
        if retry < self.config.max_retries:
            self.stats.retries += 1
            if self.tracer is not None:
                self.tracer.emit(
                    CAT_FRAME,
                    "retransmit",
                    sim_time_s=self.sim.now,
                    node_id=frame.src,
                    dst=frame.dst,
                    retry=retry + 1,
                )
            self.sim.schedule(
                airtime + self.config.ack_timeout_s,
                self.send,
                frame,
                src_pos,
                dst_pos,
                neighbours,
                on_delivered,
                on_failed,
                retry + 1,
            )
            return
        self.stats.drops += 1
        if self.tracer is not None:
            self.tracer.emit(
                CAT_FRAME,
                "drop",
                sim_time_s=self.sim.now,
                node_id=frame.src,
                dst=frame.dst,
                retries=retry,
            )
        if on_failed is not None:
            self.sim.schedule(airtime, on_failed, frame)


@dataclass
class MacStats:
    """Counters for the ablation/network benchmarks."""

    transmissions: int = 0
    collisions: int = 0
    retries: int = 0
    drops: int = 0

"""Network-layer fault injection: channel decorator and delivery hooks.

:class:`FaultyChannel` wraps :class:`repro.network.channel.Channel` and
kills frames with Gilbert–Elliott burst loss and link blackout windows
*before* the healthy channel's SNR draw runs — burst loss layers on top
of ``ChannelConfig.base_loss_rate``, it does not replace it.

:class:`DeliveryFaults` sits at the transport's delivery point and
injects message duplication and delay (reordering).  Both keep their
own RNG streams so installing them never perturbs the channel, MAC or
synthesis draws of the underlying scenario.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Optional, Sequence

import numpy as np

from repro.faults.plan import (
    BurstLoss,
    FaultStats,
    LinkBlackout,
    MessageDelay,
    MessageDuplication,
)
from repro.network.channel import Channel
from repro.rng import make_rng
from repro.types import Position

if TYPE_CHECKING:
    from repro.network.messages import Frame
    from repro.network.simulator import Simulator


class GilbertElliott:
    """The classic two-state burst-loss Markov chain, stepped per frame."""

    def __init__(self, spec: BurstLoss, rng: np.random.Generator) -> None:
        self.spec = spec
        self._rng = rng
        self._bad = False

    @property
    def in_bad_state(self) -> bool:
        """True while the chain sits in the lossy burst state."""
        return self._bad

    def frame_lost(self) -> bool:
        """Step the chain once and decide this frame's fate."""
        spec = self.spec
        if self._bad:
            if self._rng.random() < spec.p_bad_to_good:
                self._bad = False
        else:
            if self._rng.random() < spec.p_good_to_bad:
                self._bad = True
        loss = spec.bad_loss_rate if self._bad else spec.good_loss_rate
        if loss <= 0.0:
            return False
        if loss >= 1.0:
            return True
        return bool(self._rng.random() < loss)


class FaultyChannel:
    """Channel decorator layering burst loss and blackouts on delivery.

    Topology building (``delivery_probability``) sees the
    healthy channel via delegation — faults strike frames in flight,
    not the deployment-time connectivity survey, matching how real
    interference bursts behave.
    """

    def __init__(
        self,
        inner: Channel,
        burst: Optional[BurstLoss] = None,
        blackouts: Sequence[LinkBlackout] = (),
        rng: np.random.Generator | None = None,
        stats: FaultStats | None = None,
    ) -> None:
        self.inner = inner
        self.blackouts = tuple(blackouts)
        self._stats = stats if stats is not None else FaultStats()
        self._gilbert = (
            GilbertElliott(burst, make_rng(rng))
            if burst is not None
            else None
        )
        self._burst = burst
        #: Simulation clock, bound once the simulator exists.
        self._now: Callable[[], float] = lambda: 0.0

    def bind_clock(self, now: Callable[[], float]) -> None:
        """Attach the simulation clock the fault windows are defined on."""
        self._now = now

    def __getattr__(self, name: str) -> Any:
        return getattr(self.inner, name)

    def attempt_delivery(
        self, src: int, dst: int, src_pos: Position, dst_pos: Position
    ) -> bool:
        """Frame-level delivery draw with the fault layers applied first."""
        now = self._now()
        for blackout in self.blackouts:
            if blackout.covers(src, dst, now):
                self._stats.frames_blackout_lost += 1
                return False
        if (
            self._gilbert is not None
            and self._burst is not None
            and self._burst.window_contains(now)
            and self._gilbert.frame_lost()
        ):
            self._stats.frames_burst_lost += 1
            return False
        return self.inner.attempt_delivery(src, dst, src_pos, dst_pos)


class DeliveryFaults:
    """Duplication and delay injection at the frame-delivery point.

    The transport calls :meth:`deliver` instead of handing the frame to
    the destination directly; this hook decides whether the frame
    arrives now, late, and/or twice.
    """

    def __init__(
        self,
        duplication: Optional[MessageDuplication] = None,
        delay: Optional[MessageDelay] = None,
        rng: np.random.Generator | None = None,
        stats: FaultStats | None = None,
    ) -> None:
        self.duplication = duplication
        self.delay = delay
        self._rng = make_rng(rng)
        self._stats = stats if stats is not None else FaultStats()

    def deliver(
        self,
        sim: Simulator,
        dst: int,
        frame: Frame,
        deliver_fn: Callable[[int, object], None],
    ) -> None:
        """Route one frame through the duplication/delay lottery."""
        now = sim.now
        delay = self.delay
        if (
            delay is not None
            and delay.window_contains(now)
            and self._rng.random() < delay.probability
        ):
            self._stats.frames_delayed += 1
            sim.schedule(delay.delay_s, deliver_fn, dst, frame)
        else:
            deliver_fn(dst, frame)
        dup = self.duplication
        if (
            dup is not None
            and dup.window_contains(now)
            and self._rng.random() < dup.probability
        ):
            self._stats.frames_duplicated += 1
            sim.schedule(dup.delay_s, deliver_fn, dst, frame)

"""Reference scheduler the tuple-heap ``Simulator`` is checked against.

:class:`ReferenceSimulator` is the event loop as it stood before the
tuple-heap rewrite (DESIGN.md §14), kept verbatim but for the
cancellation neither loop supports any more: dataclass heap entries
compared through their generated ``__lt__``, and periodic trains
pre-scheduled in full with one fresh ``seq`` per firing, as the old
runner's ``while t < horizon`` install loops did.  Item trains are likewise
scheduled item by item up front, each with its own ``seq``: that is the
order ``Simulator.schedule_train`` claims to keep with one queue entry.
Its API is padded so it can replace ``repro.network.nodeproc.Simulator``
under ``monkeypatch`` and drive ``run_network_scenario`` end to end, on
the full schedule (:func:`tests.scenario.oracles.full_schedule`): every
train runs in full from install, so it never re-arms one with items
left (``rearm`` queues what it is given with fresh seqs).
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Optional

from repro.errors import SimulationError


@dataclass(order=True)
class _RefEntry:
    time: float
    seq: int
    event: "_RefEvent" = field(compare=False)


class _RefEvent:
    __slots__ = ("time", "fn", "args", "popped")

    def __init__(
        self, time: float, fn: Callable[..., Any], args: tuple
    ) -> None:
        self.time = time
        self.fn = fn
        self.args = args
        self.popped = False


class _RefTrain:
    """Handle over a pre-scheduled train: its queue state."""

    __slots__ = ("events",)

    def __init__(self, events: list[_RefEvent]) -> None:
        self.events = events

    @property
    def queued(self) -> bool:
        return any(not e.popped for e in self.events)


class ReferenceSimulator:
    """The pre-rewrite event loop, API-padded to slot into the runner."""

    def __init__(self) -> None:
        self._now = 0.0
        self._queue: list[_RefEntry] = []
        self._seq = itertools.count()
        self._processed = 0
        self._running = False

    @property
    def now(self) -> float:
        return self._now

    @property
    def n_pending(self) -> int:
        return len(self._queue)

    @property
    def n_processed(self) -> int:
        return self._processed

    def stats(self) -> dict[str, int]:
        return {
            "events_executed": self._processed,
            "events_pending": len(self._queue),
            "peak_queue_depth": 0,
        }

    def schedule(
        self, delay: float, fn: Callable[..., Any], *args: Any
    ) -> _RefEvent:
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past: delay={delay}")
        return self.schedule_at(self._now + delay, fn, *args)

    def schedule_at(
        self, time: float, fn: Callable[..., Any], *args: Any
    ) -> _RefEvent:
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at {time} < now ({self._now})"
            )
        event = _RefEvent(time, fn, args)
        heapq.heappush(self._queue, _RefEntry(time, next(self._seq), event))
        return event

    def schedule_periodic(
        self,
        interval: float,
        fn: Callable[..., Any],
        *args: Any,
        first: Optional[float] = None,
        until: Optional[float] = None,
    ) -> _RefTrain:
        # The old runner had no periodic primitive: it installed the
        # whole train up front with one `while t < horizon` loop per
        # periodic, each firing drawing its own seq.
        if interval <= 0:
            raise SimulationError(
                f"periodic interval must be positive, got {interval}"
            )
        if until is None:
            raise SimulationError(
                "ReferenceSimulator pre-schedules periodics; until is required"
            )
        t = self._now + interval if first is None else first
        events = []
        while t < until:
            events.append(self.schedule_at(t, fn, *args))
            t += interval
        return _RefTrain(events)

    def schedule_train(
        self, items: Iterable[tuple[float, Callable[..., Any], tuple]]
    ) -> _RefTrain:
        # Every item up front, in order, each drawing its own seq.
        return _RefTrain(
            [self.schedule_at(t, fn, *args) for t, fn, args in items]
        )

    def rearm(
        self,
        train: _RefTrain,
        items: Iterable[tuple[float, Callable[..., Any], tuple]],
    ) -> None:
        if train.queued:
            raise SimulationError("only a dormant train can be re-armed")
        train.events = [
            self.schedule_at(t, fn, *args) for t, fn, args in items
        ]

    def run(
        self,
        until: Optional[float] = None,
        max_events: int = 10_000_000,
    ) -> int:
        if self._running:
            raise SimulationError("simulator re-entered from a callback")
        self._running = True
        executed = 0
        try:
            while self._queue:
                if executed >= max_events:
                    raise SimulationError(
                        f"exceeded max_events={max_events}; runaway schedule?"
                    )
                entry = self._queue[0]
                if until is not None and entry.time > until:
                    break
                heapq.heappop(self._queue)
                entry.event.popped = True
                self._now = entry.time
                entry.event.fn(*entry.event.args)
                self._processed += 1
                executed += 1
            if until is not None and self._now < until:
                self._now = until
        finally:
            self._running = False
        return executed

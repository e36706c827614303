"""Discrete-event simulation core.

A minimal, deterministic event loop: events are ``(time, seq)``-ordered
callbacks in a binary heap; ties break by scheduling order, so repeated
runs with the same seeds replay identically.

The heap holds plain ``(time, seq, event)`` tuples, so ordering runs as
C-level tuple comparison (``seq`` is unique per event, so comparison
never reaches the non-orderable callback).  A scheduled event always
fires: no runner withdraws one, so the loop never checks.  Periodic
trains (``schedule_periodic``) and finite item trains (``schedule_train``)
keep a single queue entry that is re-armed by the loop itself,
preserving the entry's original ``seq`` so the ``(time, seq)`` replay
order is exactly that of pre-scheduling the whole train contiguously
up front.  A train whose items run out (or an empty one) goes dormant
but keeps its ``seq``: ``rearm`` queues new items in the same slot, so
a train armed only while its owner needs it fires its items exactly
where the up-front train would have.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Iterable, Iterator, Optional

from repro.errors import SimulationError

#: One item of a :meth:`Simulator.schedule_train`: ``(time, fn, args)``.
TrainItem = tuple[float, Callable[..., Any], tuple]


class Event:
    """Handle for a scheduled callback."""

    __slots__ = (
        "time",
        "fn",
        "args",
        "seq",
        "interval",
        "until",
        "items",
        "rearms",
        "_queued",
    )

    def __init__(
        self, time: float, fn: Callable[..., Any], args: tuple, seq: int
    ) -> None:
        self.time = time
        self.fn = fn
        self.args = args
        self.seq = seq
        #: Periodics and trains re-arm after firing; one-shots do not.
        self.rearms = False
        #: Re-arm period of a periodic; None otherwise.
        self.interval: Optional[float] = None
        #: Exclusive horizon for periodic re-arming; None = unbounded.
        self.until: Optional[float] = None
        #: A train's items after the queued one; None for a dormant
        #: train and for every other event.
        self.items: Optional[Iterator[TrainItem]] = None
        self._queued = True

    @property
    def queued(self) -> bool:
        """True while the event (a train: its next item) is queued."""
        return self._queued


class Simulator:
    """The event loop.

    Typical use::

        sim = Simulator()
        sim.schedule(1.5, node.on_timer)
        sim.run(until=600.0)
    """

    def __init__(self) -> None:
        self._now = 0.0
        self._queue: list[tuple[float, int, Event]] = []
        self._seq = 0
        self._processed = 0
        self._running = False
        #: Largest queue length observed (scheduler observability).
        self._peak_depth = 0
        #: Recording probe (see ``repro.sanitize``); None = zero-cost.
        self._probe: Optional[Any] = None

    # ------------------------------------------------------------------
    # Probe (opt-in recording, e.g. the repro.sanitize sanitizer)
    # ------------------------------------------------------------------
    def attach_probe(self, probe: Any) -> None:
        """Install a recording probe around event execution.

        The probe must expose ``on_scheduled(event)``,
        ``on_event_begin(time, event)`` and ``on_event_end(event)``.
        With no probe attached the loop takes the original fast path —
        the only cost is one ``is None`` check per event.
        """
        if self._probe is not None:
            raise SimulationError("a probe is already attached")
        self._probe = probe

    @property
    def now(self) -> float:
        """Current simulation time [s]."""
        return self._now

    @property
    def n_pending(self) -> int:
        """Events still queued."""
        return len(self._queue)

    @property
    def n_processed(self) -> int:
        """Events executed so far."""
        return self._processed

    @property
    def peak_queue_depth(self) -> int:
        """Largest queue length observed."""
        return self._peak_depth

    def stats(self) -> dict[str, float]:
        """Scheduler counters for telemetry export."""
        return {
            "events_executed": self._processed,
            "events_pending": self.n_pending,
            "peak_queue_depth": self._peak_depth,
        }

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(
        self, delay: float, fn: Callable[..., Any], *args: Any
    ) -> Event:
        """Run ``fn(*args)`` after ``delay`` seconds of simulated time."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past: delay={delay}")
        return self.schedule_at(self._now + delay, fn, *args)

    def schedule_at(
        self, time: float, fn: Callable[..., Any], *args: Any
    ) -> Event:
        """Run ``fn(*args)`` at absolute simulation time ``time``."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at {time} < now ({self._now})"
            )
        seq = self._seq
        self._seq = seq + 1
        event = Event(time, fn, args, seq)
        if self._probe is not None:
            self._probe.on_scheduled(event)
        queue = self._queue
        heapq.heappush(queue, (time, seq, event))
        if len(queue) > self._peak_depth:
            self._peak_depth = len(queue)
        return event

    def schedule_periodic(
        self,
        interval: float,
        fn: Callable[..., Any],
        *args: Any,
        first: Optional[float] = None,
        until: Optional[float] = None,
    ) -> Event:
        """Run ``fn(*args)`` every ``interval`` seconds.

        The first firing is at absolute time ``first`` (default
        ``now + interval``); re-arming continues while the next firing
        time stays strictly below ``until`` (exclusive; None =
        forever).  Firing times accumulate (``t += interval``), exactly
        like a pre-scheduled ``while t < until`` train, and the single
        queue entry keeps its creation ``seq``, so same-time ordering
        against other events is identical to scheduling the whole train
        contiguously up front.
        """
        if interval <= 0:
            raise SimulationError(
                f"periodic interval must be positive, got {interval}"
            )
        start = self._now + interval if first is None else first
        if start < self._now:
            raise SimulationError(
                f"cannot schedule at {start} < now ({self._now})"
            )
        seq = self._seq
        self._seq = seq + 1
        event = Event(start, fn, args, seq)
        event.rearms = True
        event.interval = interval
        event.until = until
        if until is not None and start >= until:
            # Empty train: nothing to queue; hand back an inert handle.
            event._queued = False
            return event
        if self._probe is not None:
            self._probe.on_scheduled(event)
        queue = self._queue
        heapq.heappush(queue, (start, seq, event))
        if len(queue) > self._peak_depth:
            self._peak_depth = len(queue)
        return event

    def schedule_train(self, items: Iterable[TrainItem]) -> Event:
        """Run each ``(time, fn, args)`` item at its absolute time.

        Item times must not decrease.  The train is one queue entry:
        it holds the next item, and after each firing re-pushes itself
        with the following one under its creation ``seq``, so the
        ``(time, seq)`` order equals scheduling every item up front in
        one loop.  ``items`` is consumed one item per firing, so a
        generator computes each item just before it is queued.  A
        first time before ``now`` raises here; a later time before its
        predecessor raises when the train reaches it.  A train whose
        items run out goes dormant, and an empty train starts dormant:
        :meth:`rearm` queues it again in the slot it holds.
        """
        seq = self._seq
        self._seq = seq + 1
        event = Event(self._now, _inert, (), seq)
        event.rearms = True
        event._queued = False
        if self._probe is not None:
            self._probe.on_scheduled(event)
        self._load(event, items)
        return event

    def rearm(self, event: Event, items: Iterable[TrainItem]) -> None:
        """Queue new items on a dormant train, under its creation ``seq``.

        The items fire exactly where the same items of one up-front
        train would have: at equal times, after every event created
        before the train and before every event created after it.  An
        empty ``items`` leaves the train dormant.  The probe is not
        told: the train keeps the provenance of its creation, so the
        sanitizer sees an install-time train as install-time however
        often it is re-armed.  Re-arming a queued, periodic or one-shot
        event, or a train from its own callback (its items are not yet
        known to be spent), raises :class:`SimulationError`.
        """
        if (
            event._queued
            or not event.rearms
            or event.interval is not None
            or event.items is not None
        ):
            raise SimulationError("only a dormant train can be re-armed")
        self._load(event, items)

    def _load(self, event: Event, items: Iterable[TrainItem]) -> None:
        """Queue a dormant train's first item; no item keeps it dormant."""
        rest = iter(items)
        first = next(rest, None)
        if first is None:
            return
        time, fn, args = first
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at {time} < now ({self._now})"
            )
        event.time = time
        event.fn = fn
        event.args = args
        event.items = rest
        event._queued = True
        queue = self._queue
        heapq.heappush(queue, (time, event.seq, event))
        if len(queue) > self._peak_depth:
            self._peak_depth = len(queue)

    @staticmethod
    def _next_item(event: Event, time: float) -> bool:
        """Load a fired train's next item; False (dormant) when none is
        left."""
        items = event.items
        item = next(items, None) if items is not None else None
        if item is None:
            event.items = None
            return False
        next_time, event.fn, event.args = item
        if next_time < time:
            raise SimulationError(
                f"train item at {next_time} follows one at {time}"
            )
        event.time = next_time
        event._queued = True
        return True

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(
        self,
        until: Optional[float] = None,
        max_events: int = 10_000_000,
    ) -> int:
        """Drain the queue; returns the number of events executed.

        ``until`` stops the clock at that time (events beyond it stay
        queued); ``max_events`` guards against runaway feedback loops.
        """
        if self._running:
            raise SimulationError("simulator re-entered from a callback")
        self._running = True
        executed = 0
        # Local bindings keep the hot loop free of repeated attribute
        # lookups; the queue list is mutated in place everywhere, so the
        # binding never goes stale.
        queue = self._queue
        heappop = heapq.heappop
        heappush = heapq.heappush
        probe = self._probe
        try:
            while queue:
                entry = queue[0]
                time = entry[0]
                if until is not None and time > until:
                    break
                if executed >= max_events:
                    raise SimulationError(
                        f"exceeded max_events={max_events}; runaway schedule?"
                    )
                heappop(queue)
                event = entry[2]
                event._queued = False
                self._now = time
                if probe is None:
                    event.fn(*event.args)
                else:
                    probe.on_event_begin(time, event)
                    try:
                        event.fn(*event.args)
                    finally:
                        probe.on_event_end(event)
                executed += 1
                if event.rearms:
                    interval = event.interval
                    if interval is not None:
                        next_time = time + interval
                        event_until = event.until
                        if event_until is None or next_time < event_until:
                            event.time = next_time
                            event._queued = True
                            heappush(queue, (next_time, event.seq, event))
                    elif self._next_item(event, time):
                        heappush(queue, (event.time, event.seq, event))
            if until is not None and self._now < until:
                self._now = until
        finally:
            self._processed += executed
            self._running = False
        return executed


def _inert() -> None:
    """Callback of a train that was never loaded; never queued, never run."""

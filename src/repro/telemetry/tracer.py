"""The event emitter: point events and wall-time spans.

Design constraint (DESIGN.md §12): telemetry must be out-of-band.  Code
under instrumentation holds an ``Optional[Tracer]`` and guards every
emission site with ``if tracer is not None`` — the disabled path is a
single attribute check, draws no RNG, allocates nothing, and sends no
frames.  :func:`maybe_stage` is that guard for a profiling span.  The
tracer itself reads wall time only through the injected clock
(``repro.telemetry.clock``), keeping DET001 clean.
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext
from typing import Any, ContextManager, Iterator, Optional, Sequence

from repro.telemetry.clock import Clock, perf_clock
from repro.telemetry.events import (
    CAT_PROFILING,
    KIND_POINT,
    KIND_SPAN,
    TraceEvent,
    freeze_fields,
)
from repro.telemetry.sinks import TraceSink


class Tracer:
    """Emits structured events to one or more sinks, in order."""

    def __init__(
        self,
        sinks: Sequence[TraceSink],
        clock: Clock = perf_clock,
    ) -> None:
        self._sinks = tuple(sinks)
        self._clock = clock
        self._seq = 0

    def emit(
        self,
        category: str,
        name: str,
        *,
        sim_time_s: float | None = None,
        node_id: int | None = None,
        **fields: Any,
    ) -> TraceEvent:
        """Emit a point event and return it."""
        event = TraceEvent(
            seq=self._next_seq(),
            kind=KIND_POINT,
            category=category,
            name=name,
            wall_time_s=self._clock(),
            sim_time_s=sim_time_s,
            node_id=node_id,
            fields=freeze_fields(fields),
        )
        self._write(event)
        return event

    @contextmanager
    def span(
        self,
        category: str,
        name: str,
        *,
        sim_time_s: float | None = None,
        node_id: int | None = None,
        **fields: Any,
    ) -> Iterator["SpanHandle"]:
        """Measure a wall-time span; the event is emitted on exit.

        The span's ``wall_time_s`` is its start, ``wall_dur_s`` the
        elapsed clock time at exit.  Extra fields may be attached to
        the handle inside the block.
        """
        seq = self._next_seq()
        start = self._clock()
        handle = SpanHandle(dict(fields))
        try:
            yield handle
        finally:
            event = TraceEvent(
                seq=seq,
                kind=KIND_SPAN,
                category=category,
                name=name,
                wall_time_s=start,
                sim_time_s=sim_time_s,
                wall_dur_s=self._clock() - start,
                node_id=node_id,
                fields=freeze_fields(handle.fields),
            )
            self._write(event)

    def flush(self) -> None:
        for sink in self._sinks:
            sink.flush()

    def close(self) -> None:
        for sink in self._sinks:
            sink.close()

    def _next_seq(self) -> int:
        seq = self._seq
        self._seq += 1
        return seq

    def _write(self, event: TraceEvent) -> None:
        for sink in self._sinks:
            sink.write(event)


class SpanHandle:
    """Mutable holder for fields attached while a span is open."""

    def __init__(self, fields: dict[str, Any]) -> None:
        self.fields = fields

    def set(self, **fields: Any) -> None:
        self.fields.update(fields)


def maybe_stage(
    tracer: Optional[Tracer], name: str, **fields: Any
) -> ContextManager[SpanHandle | None]:
    """Profile one pipeline stage as a ``profiling`` span, or do nothing.

    Yields the open span's :class:`SpanHandle` so a stage can attach
    fields computed inside it (e.g. scheduler counters), or None when
    ``tracer`` is None, so hot paths need no second check.
    """
    if tracer is None:
        return nullcontext()
    return tracer.span(CAT_PROFILING, name, **fields)

"""The `Telemetry` bundle handed to scenario runners.

One object carries the tracer and the metrics registry through the
whole pipeline, so instrumentation sites take a single optional
parameter.  ``Telemetry.memory()`` and ``Telemetry.to_jsonl(path)``
are the two constructors callers actually use.
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import Any, ContextManager, Iterator, Mapping, Sequence

from repro.telemetry.clock import Clock, perf_clock
from repro.telemetry.events import CAT_PROFILING, TraceEvent
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.sinks import InMemorySink, JsonlSink, TraceSink
from repro.telemetry.tracer import SpanHandle, Tracer


class Telemetry:
    """Tracer + metrics registry, built over a shared sink set."""

    def __init__(
        self,
        sinks: Sequence[TraceSink],
        clock: Clock = perf_clock,
    ) -> None:
        self.sinks = tuple(sinks)
        self.tracer = Tracer(self.sinks, clock=clock)
        self.metrics = MetricsRegistry()

    @classmethod
    def memory(cls, clock: Clock = perf_clock) -> "Telemetry":
        """In-memory telemetry: events land in ``.events``."""
        return cls([InMemorySink()], clock=clock)

    @classmethod
    def to_jsonl(
        cls, path: str | Path, clock: Clock = perf_clock
    ) -> "Telemetry":
        """Telemetry streaming events to a JSONL file at ``path``."""
        return cls([JsonlSink(path)], clock=clock)

    @property
    def events(self) -> list[TraceEvent]:
        """Events captured by the first in-memory sink (if any)."""
        for sink in self.sinks:
            if isinstance(sink, InMemorySink):
                return sink.events
        return []

    @contextmanager
    def stage(
        self, name: str, **fields: Any
    ) -> Iterator[SpanHandle | None]:
        """Profile one pipeline stage: span + latency histogram.

        Yields the open span's handle so callers can attach fields
        computed inside the stage (e.g. scheduler counters) via
        ``handle.set(...)``.
        """
        with self.tracer.span(CAT_PROFILING, name, **fields) as handle:
            yield handle
        event = handle.event
        if event is not None and event.wall_dur_s is not None:
            self.metrics.histogram(
                "stage_seconds", stage=name
            ).observe(event.wall_dur_s)

    def record_stats(
        self, prefix: str, stats: Mapping[str, Any]
    ) -> None:
        """Mirror a terminal counters dict into the registry.

        Used to publish the network runner's ``dataclasses.asdict``
        snapshots — ``fault_stats`` (``FaultStats`` merged with
        ``ResilienceStats``) and ``MacStats`` — and its scheduler stats
        as counter series named ``<prefix>.<key>``, so benches and
        services read one surface.
        """
        for key in sorted(stats):
            value = stats[key]
            if isinstance(value, bool) or not isinstance(
                value, (int, float)
            ):
                continue
            counter = self.metrics.counter(f"{prefix}.{key}")
            counter.value = float(value)

    def flush(self) -> None:
        self.tracer.flush()

    def close(self) -> None:
        self.tracer.close()


def maybe_stage(
    telemetry: "Telemetry | None", name: str, **fields: Any
) -> ContextManager[SpanHandle | None]:
    """``telemetry.stage(...)`` or a free no-op when telemetry is off.

    Yields the stage's :class:`SpanHandle` (or None when telemetry is
    off), so hot paths can attach fields without re-checking.
    """
    if telemetry is None:
        return nullcontext()
    return telemetry.stage(name, **fields)

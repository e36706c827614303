"""Pluggable destinations for trace events.

A sink receives every :class:`~repro.telemetry.events.TraceEvent` the
tracer emits, in emission order.  Sinks are deliberately dumb — no
filtering, no buffering policy beyond what the transport needs — so
the emission path stays cheap and the disabled path stays free.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.errors import ConfigurationError
from repro.telemetry.events import TraceEvent


class TraceSink:
    """Base class: receives events and (optionally) flushes/closes."""

    def write(self, event: TraceEvent) -> None:
        raise NotImplementedError

    def flush(self) -> None:  # pragma: no cover - trivial default
        pass

    def close(self) -> None:  # pragma: no cover - trivial default
        self.flush()


class InMemorySink(TraceSink):
    """Accumulates events in a list — for tests and in-process analysis."""

    def __init__(self) -> None:
        self.events: list[TraceEvent] = []

    def write(self, event: TraceEvent) -> None:
        self.events.append(event)


class JsonlSink(TraceSink):
    """Streams events to a JSON-lines file, one event per line."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = self.path.open("w", encoding="utf-8")

    def write(self, event: TraceEvent) -> None:
        self._fh.write(
            json.dumps(event.to_json_dict(), separators=(",", ":"))
        )
        self._fh.write("\n")

    def flush(self) -> None:
        if not self._fh.closed:
            self._fh.flush()

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.close()


def read_trace_jsonl(path: str | Path) -> list[TraceEvent]:
    """Load a JSONL trace file back into a list of events."""
    path = Path(path)
    events: list[TraceEvent] = []
    with path.open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                data = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ConfigurationError(
                    f"{path}:{lineno}: not valid JSON: {exc}"
                ) from exc
            events.append(TraceEvent.from_json_dict(data))
    return events

"""Structured tracing, metrics, and profiling for the SID pipeline.

Zero-overhead-when-disabled observability (DESIGN.md §12): scenario
runners accept an optional :class:`Telemetry` bundle; when it is
``None`` every instrumentation site reduces to one attribute check.
Events carry both sim-time and wall-time, stream to pluggable sinks
(in-memory, JSONL, Chrome trace-event export), and a CLI summarises
runs: ``python -m repro.telemetry report <trace.jsonl>``.
"""

from repro.telemetry.clock import Clock, ManualClock, perf_clock
from repro.telemetry.events import (
    CAT_DETECTION,
    CAT_DUTYCYCLE,
    CAT_FAULT,
    CAT_FRAME,
    CAT_HEAL,
    CAT_PROFILING,
    CATEGORIES,
    KIND_POINT,
    KIND_SPAN,
    SCHEMA_VERSION,
    TraceEvent,
)
from repro.telemetry.chrome import to_chrome_trace, write_chrome_trace
from repro.telemetry.metrics import (
    Counter,
    Histogram,
    MetricsRegistry,
    series_key,
)
from repro.telemetry.report import format_summary, summarize
from repro.telemetry.session import Telemetry, maybe_stage
from repro.telemetry.sinks import (
    InMemorySink,
    JsonlSink,
    TraceSink,
    read_trace_jsonl,
)
from repro.telemetry.tracer import SpanHandle, Tracer

__all__ = [
    "CAT_DETECTION",
    "CAT_DUTYCYCLE",
    "CAT_FAULT",
    "CAT_FRAME",
    "CAT_HEAL",
    "CAT_PROFILING",
    "CATEGORIES",
    "KIND_POINT",
    "KIND_SPAN",
    "SCHEMA_VERSION",
    "Clock",
    "Counter",
    "Histogram",
    "InMemorySink",
    "JsonlSink",
    "ManualClock",
    "MetricsRegistry",
    "SpanHandle",
    "Telemetry",
    "TraceEvent",
    "TraceSink",
    "Tracer",
    "format_summary",
    "maybe_stage",
    "perf_clock",
    "read_trace_jsonl",
    "series_key",
    "summarize",
    "to_chrome_trace",
    "write_chrome_trace",
]

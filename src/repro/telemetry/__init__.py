"""Structured tracing and profiling for the SID pipeline.

Zero-overhead-when-disabled observability (DESIGN.md §12): every
scenario runner takes an optional :class:`Tracer`, and its trace is
the run's one observability record.  When the tracer is ``None`` every
instrumentation site reduces to one attribute check.  Events carry
both sim-time and wall-time (read through an injectable clock, so a
``ManualClock`` trace is byte-reproducible), stream to pluggable sinks
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
from repro.telemetry.report import format_summary, summarize
from repro.telemetry.sinks import (
    InMemorySink,
    JsonlSink,
    TraceSink,
    read_trace_jsonl,
)
from repro.telemetry.tracer import SpanHandle, Tracer, maybe_stage

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
    "InMemorySink",
    "JsonlSink",
    "ManualClock",
    "SpanHandle",
    "TraceEvent",
    "TraceSink",
    "Tracer",
    "format_summary",
    "maybe_stage",
    "perf_clock",
    "read_trace_jsonl",
    "summarize",
    "to_chrome_trace",
    "write_chrome_trace",
]

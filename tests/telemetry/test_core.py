"""Unit tests for the telemetry core: clock, events, tracer, stages."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.telemetry import (
    CAT_PROFILING,
    CATEGORIES,
    KIND_POINT,
    KIND_SPAN,
    ManualClock,
    TraceEvent,
    Tracer,
    InMemorySink,
    maybe_stage,
)
from repro.telemetry.events import coerce_field_value, freeze_fields
from repro.telemetry.report import stage_latencies


class TestManualClock:
    def test_tick_advances_per_call(self):
        clock = ManualClock(start_s=10.0, tick_s=0.5)
        assert clock() == 10.0
        assert clock() == 10.5
        assert clock() == 11.0

    def test_advance(self):
        clock = ManualClock()
        clock.advance(3.0)
        assert clock() == 3.0

    def test_negative_rejected(self):
        with pytest.raises(ConfigurationError):
            ManualClock(tick_s=-1.0)
        with pytest.raises(ConfigurationError):
            ManualClock().advance(-0.1)


class TestFieldCoercion:
    def test_json_native_pass_through(self):
        assert coerce_field_value(True) is True
        assert coerce_field_value("x") == "x"
        assert coerce_field_value(3) == 3
        assert coerce_field_value(None) is None

    def test_numpy_scalars_unwrap(self):
        assert coerce_field_value(np.int64(7)) == 7
        assert coerce_field_value(np.float64(0.5)) == 0.5
        assert coerce_field_value(np.bool_(True)) is True

    def test_sequences_become_tuples(self):
        assert coerce_field_value([1, np.int64(2)]) == (1, 2)

    def test_unknown_objects_repr(self):
        assert coerce_field_value(object()).startswith("<object")

    def test_freeze_fields_sorts_keys(self):
        frozen = freeze_fields({"b": 2, "a": 1})
        assert frozen == (("a", 1), ("b", 2))


class TestTracer:
    def test_emit_point(self):
        sink = InMemorySink()
        tracer = Tracer([sink], clock=ManualClock(start_s=5.0))
        event = tracer.emit(
            "frame", "tx", sim_time_s=1.5, node_id=3, dst=0
        )
        assert sink.events == [event]
        assert event.kind == KIND_POINT
        assert event.category == "frame"
        assert event.sim_time_s == 1.5
        assert event.node_id == 3
        assert event.wall_time_s == 5.0
        assert event.field("dst") == 0

    def test_seq_is_monotonic(self):
        tracer = Tracer([InMemorySink()], clock=ManualClock())
        seqs = [tracer.emit("frame", "tx").seq for _ in range(3)]
        assert seqs == sorted(seqs)
        assert len(set(seqs)) == 3

    def test_span_measures_duration(self):
        sink = InMemorySink()
        tracer = Tracer([sink], clock=ManualClock(tick_s=1.0))
        with tracer.span(CAT_PROFILING, "stage") as handle:
            handle.set(rows=4)
        (event,) = sink.events
        assert event.kind == KIND_SPAN
        # Two clock reads, 1 s apart.
        assert event.wall_dur_s == 1.0
        assert event.field("rows") == 4

    def test_span_emits_on_exception(self):
        sink = InMemorySink()
        tracer = Tracer([sink], clock=ManualClock(tick_s=1.0))
        with pytest.raises(RuntimeError):
            with tracer.span(CAT_PROFILING, "boom"):
                raise RuntimeError("x")
        assert len(sink.events) == 1

    def test_categories_are_the_acceptance_set(self):
        assert set(CATEGORIES) == {
            "frame",
            "heal",
            "fault",
            "dutycycle",
            "detection",
            "profiling",
        }


class TestMetrics:
    def test_histogram_nearest_rank(self):
        spans = [
            TraceEvent(
                seq=i,
                kind=KIND_SPAN,
                category=CAT_PROFILING,
                name="stage",
                wall_time_s=0.0,
                wall_dur_s=dur,
            )
            for i, dur in enumerate([4.0, 1.0, 3.0, 2.0])
        ]
        row = stage_latencies(spans)["stage"]
        assert row["count"] == 4
        assert row["total_s"] == 10.0
        assert row["p50_s"] == 2.0
        assert row["p90_s"] == 4.0
        assert row["p99_s"] == 4.0
        (one,) = stage_latencies(spans[:1]).values()
        assert one["p50_s"] == one["p99_s"] == 4.0


class TestTelemetrySession:
    def test_stage_records_span_and_histogram(self):
        sink = InMemorySink()
        tracer = Tracer([sink], clock=ManualClock(tick_s=0.25))
        with maybe_stage(tracer, "synthesis", n=9) as handle:
            handle.set(rows=3)
        (event,) = sink.events
        assert event.category == CAT_PROFILING
        assert event.kind == KIND_SPAN
        assert event.name == "synthesis"
        assert event.wall_dur_s == 0.25
        assert event.fields == (("n", 9), ("rows", 3))

    def test_maybe_stage_none_is_noop(self):
        with maybe_stage(None, "anything") as handle:
            assert handle is None

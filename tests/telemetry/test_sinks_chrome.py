"""JSONL round-trip and Chrome trace-event export tests."""

from __future__ import annotations

import json

import pytest

from repro.errors import ConfigurationError
from repro.telemetry import (
    CAT_PROFILING,
    SCHEMA_VERSION,
    JsonlSink,
    ManualClock,
    TraceEvent,
    Tracer,
    read_trace_jsonl,
    to_chrome_trace,
    write_chrome_trace,
)
from repro.telemetry.chrome import PID_SIMULATION, PID_WALL


def _traced_events(tmp_path):
    """Write a small mixed trace to JSONL and return (path, events)."""
    path = tmp_path / "trace.jsonl"
    tracer = Tracer(
        [JsonlSink(path)], clock=ManualClock(start_s=2.0, tick_s=0.5)
    )
    tracer.emit(
        "frame",
        "tx",
        sim_time_s=1.0,
        node_id=4,
        dst=0,
        size_bytes=32,
        hops=(1, 2),
    )
    with tracer.span(CAT_PROFILING, "outer"):
        with tracer.span(CAT_PROFILING, "inner") as h:
            h.set(rows=3)
    tracer.emit("heal", "rejoin", sim_time_s=9.5, node_id=2)
    tracer.close()
    return path


class TestJsonlRoundTrip:
    def test_events_survive_identically(self, tmp_path):
        path = _traced_events(tmp_path)
        events = read_trace_jsonl(path)
        assert len(events) == 4
        rewritten = [
            TraceEvent.from_json_dict(e.to_json_dict()) for e in events
        ]
        assert rewritten == events
        # Tuple-valued fields come back as tuples, not lists.
        assert events[0].field("hops") == (1, 2)

    def test_schema_version_is_stamped(self, tmp_path):
        path = _traced_events(tmp_path)
        for line in path.read_text().splitlines():
            assert json.loads(line)["schema"] == SCHEMA_VERSION

    def test_schema_mismatch_rejected(self, tmp_path):
        path = _traced_events(tmp_path)
        raw = json.loads(path.read_text().splitlines()[0])
        raw["schema"] = SCHEMA_VERSION + 1
        with pytest.raises(ConfigurationError, match="schema"):
            TraceEvent.from_json_dict(raw)

    def test_bad_line_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"seq": 0\n')
        with pytest.raises(ConfigurationError):
            read_trace_jsonl(path)

    def test_sink_writes_one_line_per_event(self, tmp_path):
        path = _traced_events(tmp_path)
        assert len(path.read_text().splitlines()) == 4


class TestChromeExport:
    def test_valid_strict_json(self, tmp_path):
        path = _traced_events(tmp_path)
        out = tmp_path / "trace.json"
        write_chrome_trace(read_trace_jsonl(path), out)
        doc = json.loads(out.read_text())
        assert isinstance(doc["traceEvents"], list)
        assert doc["displayTimeUnit"] == "ms"

    def test_sim_and_wall_processes(self, tmp_path):
        events = read_trace_jsonl(_traced_events(tmp_path))
        doc = to_chrome_trace(events)
        rows = doc["traceEvents"]
        meta = [r for r in rows if r["ph"] == "M"]
        assert {m["pid"] for m in meta} == {PID_SIMULATION, PID_WALL}
        # Sim-timed events land in the simulation process at sim-us.
        tx = next(r for r in rows if r["name"] == "tx")
        assert tx["pid"] == PID_SIMULATION
        assert tx["ts"] == pytest.approx(1.0e6)
        assert tx["tid"] == 4
        assert tx["ph"] == "i"
        # Wall-only spans land in the wall process, origin-relative.
        outer = next(r for r in rows if r["name"] == "outer")
        assert outer["pid"] == PID_WALL

    def test_span_nesting_preserved(self, tmp_path):
        """A child span's [ts, ts+dur] nests inside its parent's."""
        events = read_trace_jsonl(_traced_events(tmp_path))
        rows = to_chrome_trace(events)["traceEvents"]
        outer = next(r for r in rows if r["name"] == "outer")
        inner = next(r for r in rows if r["name"] == "inner")
        assert outer["ph"] == "X" and inner["ph"] == "X"
        assert outer["tid"] == inner["tid"]
        assert outer["ts"] <= inner["ts"]
        assert inner["ts"] + inner["dur"] <= outer["ts"] + outer["dur"]
        assert inner["args"]["rows"] == 3

    def test_point_events_are_thread_instants(self, tmp_path):
        events = read_trace_jsonl(_traced_events(tmp_path))
        rows = to_chrome_trace(events)["traceEvents"]
        rejoin = next(r for r in rows if r["name"] == "rejoin")
        assert rejoin["ph"] == "i"
        assert rejoin["s"] == "t"

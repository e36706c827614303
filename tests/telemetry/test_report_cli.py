"""Trace summarisation and the ``python -m repro.telemetry`` CLI."""

from __future__ import annotations

import json
import subprocess
import sys

from repro.telemetry import (
    CAT_DETECTION,
    CAT_FRAME,
    CAT_PROFILING,
    InMemorySink,
    JsonlSink,
    ManualClock,
    Tracer,
)
from repro.telemetry.cli import main
from repro.telemetry.report import (
    alarm_timeline,
    event_counts,
    format_summary,
    frame_loss,
    scheduler_stats,
    stage_latencies,
    summarize,
)


def _sample_trace(tmp_path):
    path = tmp_path / "trace.jsonl"
    tracer = Tracer([JsonlSink(path)], clock=ManualClock(tick_s=0.01))
    tracer.emit(CAT_FRAME, "tx", sim_time_s=1.0, node_id=1, dst=0)
    tracer.emit(CAT_FRAME, "tx", sim_time_s=2.0, node_id=1, dst=0)
    tracer.emit(CAT_FRAME, "rx", sim_time_s=2.1, node_id=0, src=1)
    tracer.emit(CAT_FRAME, "drop", sim_time_s=3.0, node_id=1, dst=0)
    tracer.emit(CAT_FRAME, "dead_drop", sim_time_s=3.5, node_id=2, src=1)
    tracer.emit(
        CAT_DETECTION, "alarm", sim_time_s=4.0, node_id=1, energy=9.0
    )
    tracer.emit(
        CAT_DETECTION, "sink_decision", sim_time_s=5.0, intrusion=True
    )
    for _ in range(3):
        with tracer.span(CAT_PROFILING, "detection"):
            pass
    tracer.close()
    return path


class TestSummaries:
    def test_event_counts(self, tmp_path):
        from repro.telemetry import read_trace_jsonl

        events = read_trace_jsonl(_sample_trace(tmp_path))
        counts = event_counts(events)
        assert counts["frame"] == {
            "dead_drop": 1,
            "drop": 1,
            "rx": 1,
            "tx": 2,
        }
        assert counts["detection"] == {"alarm": 1, "sink_decision": 1}

    def test_alarm_timeline_ordered(self, tmp_path):
        from repro.telemetry import read_trace_jsonl

        events = read_trace_jsonl(_sample_trace(tmp_path))
        rows = alarm_timeline(events)
        assert [r["name"] for r in rows] == ["alarm", "sink_decision"]
        assert rows[0]["energy"] == 9.0
        assert rows[1]["intrusion"] is True

    def test_stage_latencies(self, tmp_path):
        from repro.telemetry import read_trace_jsonl

        events = read_trace_jsonl(_sample_trace(tmp_path))
        stages = stage_latencies(events)
        assert stages["detection"]["count"] == 3
        assert stages["detection"]["p50_s"] > 0.0

    def test_scheduler_rate_from_span_duration(self):
        # The rate comes from the span's own duration on the tracer's
        # clock, so a ManualClock trace reports the same rate every run.
        sink = InMemorySink()
        tracer = Tracer([sink], clock=ManualClock(tick_s=0.5))
        with tracer.span(CAT_PROFILING, "event_loop") as span:
            span.set(events_executed=100, events_pending=0, peak_queue_depth=3)
        (row,) = scheduler_stats(sink.events)
        assert row["wall_s"] == 0.5
        assert row["events_per_s"] == 200.0
        assert "200 events/s" in format_summary(summarize(sink.events))

    def test_frame_loss_per_node(self, tmp_path):
        from repro.telemetry import read_trace_jsonl

        events = read_trace_jsonl(_sample_trace(tmp_path))
        loss = frame_loss(events)
        assert loss[1] == {"tx": 2, "rx": 0, "lost": 1}
        assert loss[0] == {"tx": 0, "rx": 1, "lost": 0}
        assert loss[2] == {"tx": 0, "rx": 0, "lost": 1}

    def test_summarize_shape(self, tmp_path):
        from repro.telemetry import read_trace_jsonl

        events = read_trace_jsonl(_sample_trace(tmp_path))
        summary = summarize(events)
        assert summary["n_events"] == len(events)
        assert summary["sim_span_s"] == [1.0, 5.0]
        # The whole document must be JSON-serialisable for --format json.
        json.dumps(summary)


class TestCli:
    def test_report_text(self, tmp_path, capsys):
        path = _sample_trace(tmp_path)
        assert main(["report", str(path)]) == 0
        out = capsys.readouterr().out
        assert "alarm timeline" in out
        assert "per-node frames" in out

    def test_report_json(self, tmp_path, capsys):
        path = _sample_trace(tmp_path)
        assert main(["report", str(path), "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["n_events"] == 10

    def test_chrome_conversion(self, tmp_path, capsys):
        path = _sample_trace(tmp_path)
        out = tmp_path / "chrome.json"
        assert main(["chrome", str(path), str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["traceEvents"]

    def test_missing_trace_exits_2(self, tmp_path, capsys):
        assert main(["report", str(tmp_path / "nope.jsonl")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_module_entry_point(self, tmp_path):
        path = _sample_trace(tmp_path)
        proc = subprocess.run(
            [sys.executable, "-m", "repro.telemetry", "report", str(path)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "event counts:" in proc.stdout

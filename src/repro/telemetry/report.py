"""Offline trace summarisation behind ``repro.telemetry report``.

Pure functions from an event list to JSON-ready summary structures,
so tests and the CLI share one implementation.
"""

from __future__ import annotations

from collections import Counter as TallyCounter
from typing import Any, Sequence

from repro.telemetry.events import (
    CAT_DETECTION,
    CAT_FRAME,
    CAT_PROFILING,
    KIND_SPAN,
    TraceEvent,
)

#: Frame-category event names that mean "this frame never arrived".
_LOSS_NAMES = frozenset({"drop", "dead_drop"})


def event_counts(
    events: Sequence[TraceEvent],
) -> dict[str, dict[str, int]]:
    """Event tallies per category, then per event name."""
    per_cat: dict[str, TallyCounter] = {}
    for event in events:
        per_cat.setdefault(event.category, TallyCounter())[
            event.name
        ] += 1
    return {
        cat: dict(sorted(per_cat[cat].items()))
        for cat in sorted(per_cat)
    }


def alarm_timeline(
    events: Sequence[TraceEvent],
) -> list[dict[str, Any]]:
    """Detection alarms and sink decisions, ordered by sim time."""
    rows = [
        {
            "sim_time_s": event.sim_time_s,
            "name": event.name,
            "node_id": event.node_id,
            **{k: v for k, v in event.fields},
        }
        for event in events
        if event.category == CAT_DETECTION
        and event.name in ("alarm", "sink_decision")
    ]
    rows.sort(
        key=lambda r: (
            r["sim_time_s"] if r["sim_time_s"] is not None else -1.0,
            r["name"],
        )
    )
    return rows


def _nearest_rank(ordered: Sequence[float], q: int) -> float:
    """Nearest-rank ``q``-th percentile (``0 < q <= 100``) of sorted values."""
    rank = -(-len(ordered) * q // 100)  # ceil(n * q / 100) >= 1
    return ordered[rank - 1]


def stage_latencies(
    events: Sequence[TraceEvent],
) -> dict[str, dict[str, float]]:
    """Per-stage wall-time percentiles from profiling spans."""
    per_stage: dict[str, list[float]] = {}
    for event in events:
        if event.category != CAT_PROFILING or event.kind != KIND_SPAN:
            continue
        if event.wall_dur_s is None:
            continue
        per_stage.setdefault(event.name, []).append(event.wall_dur_s)
    out: dict[str, dict[str, float]] = {}
    for name in sorted(per_stage):
        ordered = sorted(per_stage[name])
        out[name] = {
            "count": len(ordered),
            "total_s": sum(per_stage[name]),
            "p50_s": _nearest_rank(ordered, 50),
            "p90_s": _nearest_rank(ordered, 90),
            "p99_s": _nearest_rank(ordered, 99),
        }
    return out


def scheduler_stats(
    events: Sequence[TraceEvent],
) -> list[dict[str, Any]]:
    """Event-loop scheduler counters, one row per ``event_loop`` span.

    The network runner attaches the simulator's terminal counters
    (events executed and pending, peak queue depth) to its
    ``event_loop`` profiling span; this lifts them out, with the
    achieved events/sec over the span's own duration (read through the
    tracer's clock), so a trace shows scheduler health next to the
    stage latencies.
    """
    rows: list[dict[str, Any]] = []
    for event in events:
        if (
            event.category != CAT_PROFILING
            or event.kind != KIND_SPAN
            or event.name != "event_loop"
        ):
            continue
        fields = dict(event.fields)
        if "events_executed" not in fields:
            continue
        wall_s = event.wall_dur_s
        rows.append(
            {
                "wall_s": wall_s,
                "events_per_s": (
                    fields["events_executed"] / wall_s if wall_s else 0.0
                ),
                **{k: fields[k] for k in sorted(fields)},
            }
        )
    return rows


def frame_loss(
    events: Sequence[TraceEvent],
) -> dict[int, dict[str, int]]:
    """Per-node frame accounting: tx / rx / lost (drop + dead_drop)."""
    per_node: dict[int, dict[str, int]] = {}
    for event in events:
        if event.category != CAT_FRAME or event.node_id is None:
            continue
        row = per_node.setdefault(
            event.node_id, {"tx": 0, "rx": 0, "lost": 0}
        )
        if event.name == "tx":
            row["tx"] += 1
        elif event.name == "rx":
            row["rx"] += 1
        elif event.name in _LOSS_NAMES:
            row["lost"] += 1
    return dict(sorted(per_node.items()))


def summarize(events: Sequence[TraceEvent]) -> dict[str, Any]:
    """Full run summary — what the CLI prints as JSON."""
    sim_times = [
        e.sim_time_s for e in events if e.sim_time_s is not None
    ]
    return {
        "n_events": len(events),
        "sim_span_s": (
            [min(sim_times), max(sim_times)] if sim_times else None
        ),
        "event_counts": event_counts(events),
        "alarms": alarm_timeline(events),
        "stage_latencies": stage_latencies(events),
        "scheduler": scheduler_stats(events),
        "frame_loss": frame_loss(events),
    }


def format_summary(summary: dict[str, Any]) -> str:
    """Human-readable rendering of :func:`summarize` output."""
    lines: list[str] = []
    span = summary["sim_span_s"]
    lines.append(
        f"{summary['n_events']} events"
        + (
            f", sim time {span[0]:.2f}s – {span[1]:.2f}s"
            if span
            else ""
        )
    )
    lines.append("")
    lines.append("event counts:")
    for cat, names in summary["event_counts"].items():
        total = sum(names.values())
        detail = ", ".join(f"{n}={c}" for n, c in names.items())
        lines.append(f"  {cat:<12} {total:>7}  ({detail})")
    if summary["alarms"]:
        lines.append("")
        lines.append("alarm timeline:")
        for row in summary["alarms"]:
            t = row["sim_time_s"]
            where = (
                f"node {row['node_id']}"
                if row.get("node_id") is not None
                else "sink"
            )
            lines.append(
                f"  t={t:8.2f}s  {row['name']:<14} {where}"
            )
    if summary["stage_latencies"]:
        lines.append("")
        lines.append("stage latency (wall):")
        for name, row in summary["stage_latencies"].items():
            lines.append(
                f"  {name:<22} n={row['count']:<5} "
                f"p50={row['p50_s'] * 1e3:8.3f}ms "
                f"p90={row['p90_s'] * 1e3:8.3f}ms "
                f"p99={row['p99_s'] * 1e3:8.3f}ms"
            )
    if summary.get("scheduler"):
        lines.append("")
        lines.append("scheduler (event loop):")
        for row in summary["scheduler"]:
            rate = row.get("events_per_s")
            lines.append(
                f"  executed={row.get('events_executed'):<8} "
                f"peak_depth={row.get('peak_queue_depth'):<8} "
                + (f"{rate:,.0f} events/s" if rate else "")
            )
    if summary["frame_loss"]:
        lines.append("")
        lines.append("per-node frames (tx/rx/lost):")
        for node_id, row in summary["frame_loss"].items():
            lines.append(
                f"  node {node_id:<4} tx={row['tx']:<6} "
                f"rx={row['rx']:<6} lost={row['lost']}"
            )
    return "\n".join(lines)

"""One measured benchmark process (launched by ``run.py``).

Usage::

    python3 perfbench/worker.py --workload W --seed N --seconds S
        [--setup-only] [--trace --spans PATH]

The process sets up (imports ``repro``, builds the cell list, runs one
warm-up cell), then runs the timed cells back to back.  Every set-up
step and every cell is bracketed by :class:`~speed.SpeedClock` probes.
The last line of standard output is one JSON record with raw and
normalised timings, per-cell digests and, with ``--trace``, the
per-layer metrics of the traced run.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import logging
import resource
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Optional

import numpy as np

from spans import SpanTracer, install
from speed import SpeedClock

PINS_PATH = Path(__file__).resolve().parent / "pins.json"

_clock = time.perf_counter


@dataclass
class CellRecord:
    key: str
    start: float
    end: float
    digest: Optional[str]
    error: Optional[str]


def verify(cell: Any, out: Any, pins: dict[str, str]) -> tuple[Optional[str], Optional[str]]:
    """``(digest, error)`` of a finished cell's output.

    The error is set when the output breaks the cell's invariants or
    its digest differs from a pinned one.
    """
    try:
        cell.check(out)
        digest = cell.digest(out)
    except Exception as exc:  # any failed check fails this one cell
        return None, f"{type(exc).__name__}: {exc}"
    pinned = pins.get(cell.key)
    if pinned is not None and pinned != digest:
        return digest, f"digest {digest[:16]} != pinned {pinned[:16]}"
    return digest, None


def run_cell(
    cell: Any,
    clock: SpeedClock,
    pins: dict[str, str],
    tracer: Optional[SpanTracer] = None,
) -> CellRecord:
    """Run one cell between two probes and check its output."""
    clock.mark()
    start = _clock()
    try:
        if tracer is None:
            out = cell.run()
        else:
            idx = tracer.open_cell()
            try:
                out = cell.run()
            finally:
                tracer.close(idx)
    except Exception as exc:  # a raising cell is a failed cell, not a crash
        end = _clock()
        clock.mark()
        traceback.print_exc(file=sys.stderr)
        return CellRecord(cell.key, start, end, None, f"{type(exc).__name__}: {exc}")
    end = _clock()
    clock.mark()
    digest, error = verify(cell, out, pins)
    return CellRecord(cell.key, start, end, digest, error)


def timed_step(
    clock: SpeedClock, steps: list[tuple[str, float, float]], name: str, fn: Callable[[], Any]
) -> Any:
    """One set-up step, bracketed by probes."""
    clock.mark()
    start = _clock()
    value = fn()
    end = _clock()
    clock.mark()
    steps.append((name, start, end))
    return value


def layer_metrics(
    tracer: SpanTracer,
    clock: SpeedClock,
    layer_of: dict[str, str],
    counters: tuple[str, ...],
) -> tuple[dict[str, float], dict[str, Any]]:
    """Per-layer metrics of a traced run, plus the span table."""
    dur = tracer.durations(clock.normalise)
    own = tracer.self_times(dur)
    names = np.array(tracer.names)
    metrics = {m: 0.0 for m in sorted(set(layer_of.values()))}
    for name in set(tracer.names):
        metrics[layer_of[name]] += float(own[names == name].sum())
    for key in counters:
        metrics[key] = tracer.count(key)
    calls = tracer.count("synthesis.calls")
    metrics["scenario.repeat_synthesis_frac"] = (
        tracer.count("synthesis.repeats") / calls if calls else 0.0
    )
    loop_s = float(dur[names == "Simulator.run"].sum())
    metrics["network.events_per_s"] = (
        metrics["network.events"] / loop_s if loop_s > 0 else 0.0
    )
    tx = metrics["network.mac_transmissions"]
    metrics["network.delivered_per_tx"] = (
        metrics["network.sink_frames"] / tx if tx else 0.0
    )
    return metrics, tracer.spans_json(dur)


def parse_args(argv: Optional[list[str]]) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--trace", action="store_true")
    p.add_argument("--spans", type=Path, default=None)
    return p.parse_args(argv)


def main(argv: Optional[list[str]] = None) -> int:
    args = parse_args(argv)
    # Keep repro's log lines (e.g. orphaned-subtree warnings) out of
    # the benchmark's output.
    repro_log = logging.getLogger("repro")
    repro_log.addHandler(logging.NullHandler())
    repro_log.propagate = False
    pins = json.loads(PINS_PATH.read_text())

    clock = SpeedClock()
    clock.start()
    steps: list[tuple[str, float, float]] = []
    workloads = timed_step(
        clock, steps, "import", lambda: importlib.import_module("workloads")
    )
    workload = workloads.WORKLOADS[args.workload]
    warm, cells = timed_step(
        clock,
        steps,
        "inputs",
        lambda: (workload.warmup(), workload.cells(args.seed, args.seconds)),
    )
    warm_rec = run_cell(warm, clock, pins)
    steps.append(("warmup", warm_rec.start, warm_rec.end))

    records: list[CellRecord] = []
    tracer: Optional[SpanTracer] = None
    if not args.setup_only:
        if args.trace:
            tracer = SpanTracer()
            install(tracer, workloads.entry_points())
        records = [run_cell(cell, clock, pins, tracer) for cell in cells]
    clock.stop()

    out: dict[str, Any] = {
        "workload": args.workload,
        "seed": args.seed,
        "setup": [
            {"step": name, "raw_s": end - start, "norm_s": clock.span(start, end)}
            for name, start, end in steps
        ],
        "warmup": {"key": warm_rec.key, "digest": warm_rec.digest, "error": warm_rec.error},
        "cells": [
            {
                "key": r.key,
                "raw_s": r.end - r.start,
                "norm_s": clock.span(r.start, r.end),
                "probe_s": clock.probe_seconds(r.start, r.end),
                "digest": r.digest,
                "error": r.error,
            }
            for r in records
        ],
        "run_digest": hashlib.sha256(
            "\n".join(f"{r.key} {r.digest}" for r in records).encode()
        ).hexdigest(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        missing = sorted(set(workload.expected_spans) - tracer.fired())
        if missing:
            print(
                f"traced run: expected spans never fired: {', '.join(missing)}",
                file=sys.stderr,
            )
            return 3
        metrics, table = layer_metrics(
            tracer, clock, workloads.LAYER_OF, workloads.COUNTERS
        )
        out["layers"] = metrics
        if args.spans is not None:
            args.spans.parent.mkdir(parents=True, exist_ok=True)
            args.spans.write_text(
                json.dumps({"workload": args.workload, "seed": args.seed, **table})
            )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

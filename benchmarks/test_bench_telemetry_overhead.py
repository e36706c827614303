"""Telemetry overhead gate — tracing must stay out of the hot path.

The bound: attaching a tracer to the 64-node fleet detection
workload may cost at most 15% wall clock over the untraced run.  The
disabled path is cheaper still (one ``is not None`` check per site)
and is covered by the equivalence tests; this bench pins the *enabled*
cost, since that is what a traced production run pays.
"""

from __future__ import annotations

import time

from repro.detection.fleet import FleetDetector
from repro.telemetry import InMemorySink, Tracer

from benchmarks.test_bench_fleet_detection import (
    DURATION_S,
    RATE_HZ,
    _config,
    _members,
    _streams,
    _t0s,
)

#: Headroom for the traced run: the 15% bound plus a small absolute
#: epsilon so sub-100ms timing jitter cannot flip the gate.
MAX_OVERHEAD = 0.15
EPSILON_S = 0.05
ROUNDS = 9


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def _best_of_alternating(untraced, traced, rounds: int = ROUNDS):
    """Each arm's best of ``rounds``, running one round of each in turn
    so that a host slowing down or speeding up mid-bench hits both."""
    off, on = zip(*[(_timed(untraced), _timed(traced)) for _ in range(rounds)])
    return min(off), min(on)


def test_bench_telemetry_overhead_64(once):
    n = 64
    a = _streams(n, int(DURATION_S * RATE_HZ))
    t0s = _t0s(n)
    cfg = _config()
    members = _members(n)

    def untraced():
        return FleetDetector(members, cfg).process_samples(a, t0s)

    def traced():
        sink = InMemorySink()
        fleet = FleetDetector(members, cfg, tracer=Tracer([sink]))
        return fleet.process_samples(a, t0s), sink

    reports, sink = once(traced)

    # Tracing observes the run without changing it.
    assert reports == untraced()
    assert any(
        e.category == "detection" and e.name == "alarm"
        for e in sink.events
    )

    t_off, t_on = _best_of_alternating(untraced, traced)
    overhead = (t_on - t_off) / t_off
    print(
        f"\n64-node fleet detection: untraced {t_off * 1e3:.1f} ms, "
        f"traced {t_on * 1e3:.1f} ms ({overhead:+.1%}, "
        f"{len(sink.events)} events)"
    )
    assert t_on <= (1.0 + MAX_OVERHEAD) * t_off + EPSILON_S, (
        f"telemetry overhead {overhead:.1%} exceeds "
        f"{MAX_OVERHEAD:.0%} bound"
    )

"""Generated inputs: the block-speculative kernel against the lockstep oracle.

:meth:`FleetDetector.step` walks each row through its windows in
blocks, speculating that windows are quiet and falling back where a
row reports.  Its contract is the one-window lockstep walk of
:class:`tests.detection.oracles.LockstepFleetDetector`, bit for bit:
the same report lists and the same final ``seeded`` flags and eq.-5
baselines.  Hypothesis draws the fleet size, the record length (off
the hop grid too), every detector knob the walk reads, the report
density (from none to most windows, through bursts), per-row clocks,
dead runs in the ``active`` mask and random chunkings of both the
sample stream and the window stack.  The same fleets check the
event-time walk: one :class:`NodeDetector` per row, fed only its live
windows, equals the masked kernel in reports and final state.

Run with ``HYPOTHESIS_PROFILE=ci`` for ten times the examples.
"""

from __future__ import annotations

from itertools import pairwise

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.detection.fleet import FleetDetector, FleetMember, hop_windows
from repro.detection.node_detector import NodeDetector, NodeDetectorConfig
from repro.errors import ConfigurationError
from repro.rng import make_rng
from repro.telemetry import InMemorySink, ManualClock, Tracer
from repro.types import Position
from tests.detection.oracles import LockstepFleetDetector

MAX_SAMPLES = 3000


def _members(n: int) -> list[FleetMember]:
    return [
        FleetMember(i, Position(25.0 * i, 10.0 * (i % 3)), i % 3, i // 3)
        for i in range(n)
    ]


def _record(
    n: int, samples: int, bursts: int, seed: int
) -> tuple[np.ndarray, list[float]]:
    """Rectified noise plus ``bursts`` wave trains per row on average,
    of mixed width and strength, and one clock offset per row."""
    rng = make_rng(seed)
    a = np.abs(rng.normal(3.0, 1.0, size=(n, samples)))
    for i in range(n):
        for _ in range(int(rng.poisson(bursts))):
            lo = int(rng.integers(0, samples))
            hi = min(samples, lo + int(rng.integers(20, 400)))
            a[i, lo:hi] += np.abs(rng.normal(rng.uniform(1.0, 30.0), 3.0, hi - lo))
    return a, rng.uniform(-5.0, 100.0, n).tolist()


def _dead_runs(rng: np.random.Generator, n: int, k: int) -> np.ndarray:
    """An ``(n, k)`` live mask with up to four dead runs per row."""
    live = np.ones((n, k), dtype=bool)
    for i in range(n):
        for _ in range(int(rng.integers(0, 5))):
            lo = int(rng.integers(0, k))
            live[i, lo : lo + int(rng.integers(1, k + 1))] = False
    return live


def _cuts(rng: np.random.Generator, total: int, most: int) -> list[int]:
    """Random cut points splitting ``range(total)`` into pieces."""
    cuts, at = [0], 0
    while at < total:
        at = min(total, at + int(rng.integers(0, most + 1)))
        cuts.append(at)
    return cuts


def _assert_same_state(got: FleetDetector, want: FleetDetector) -> None:
    assert np.array_equal(got._seeded, want._seeded)
    assert got._mean.tobytes() == want._mean.tobytes()
    assert got._std.tobytes() == want._std.tobytes()


@st.composite
def _fleets(draw) -> tuple[NodeDetectorConfig, np.ndarray, list[float], int]:
    cfg = NodeDetectorConfig(
        m=draw(st.floats(1.0, 3.0)),
        af_threshold=draw(st.floats(0.2, 0.9)),
        init_windows=draw(st.integers(1, 6)),
        hop_s=draw(st.sampled_from([None, 0.3, 0.7, 1.3, 2.0])),
        beta1=draw(st.sampled_from([0.99, 0.9, 1.0])),
        beta2=draw(st.sampled_from([0.99, 0.5, 1.0])),
    )
    n = draw(st.integers(1, 12))
    samples = draw(st.integers(cfg.window_samples, MAX_SAMPLES))
    seed = draw(st.integers(0, 2**32 - 1))
    a, t0s = _record(n, samples, draw(st.integers(0, 25)), seed)
    return cfg, a, t0s, seed


@given(case=_fleets())
@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_block_kernel_matches_lockstep_oracle(case):
    cfg, a, t0s, seed = case
    members = _members(a.shape[0])
    rng = make_rng(seed + 1)

    oracle = LockstepFleetDetector(members, cfg)
    want = oracle.process_samples(a, t0s)
    offline = FleetDetector(members, cfg)
    assert offline.process_samples(a, t0s) == want
    _assert_same_state(offline, oracle)

    # Streaming over a random chunking equals the offline walk.
    streamed = FleetDetector(members, cfg)
    stream = streamed.stream(t0s)
    for lo, hi in pairwise(_cuts(rng, a.shape[1], 700)):
        stream.push(a[:, lo:hi])
    assert stream.finish() == want
    _assert_same_state(streamed, oracle)

    # Dead windows, the window stack split into random calls.
    w, hop = cfg.window_samples, cfg.hop_samples
    k = len(range(0, a.shape[1] - w + 1, hop))
    windows = hop_windows(a, 0, k, w, hop)
    t = np.asarray(t0s)[:, None] + np.arange(0, k * hop, hop) / cfg.rate_hz
    live = _dead_runs(rng, a.shape[0], k)
    oracle = LockstepFleetDetector(members, cfg)
    want_masked = oracle.step(windows, t, active=live)
    masked = FleetDetector(members, cfg)
    got: list = []
    for lo, hi in pairwise(_cuts(rng, k, 40)):
        got += masked.step(windows[:, lo:hi], t[:, lo:hi], active=live[:, lo:hi])
    assert got == want_masked
    _assert_same_state(masked, oracle)


@given(case=_fleets())
@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_event_time_walk_matches_masked_kernel(case):
    # A healing-armed network run feeds each live window to its node's
    # own detector; the precompute steps the fleet with active=live.
    cfg, a, t0s, seed = case
    members = _members(a.shape[0])
    w, hop = cfg.window_samples, cfg.hop_samples
    k = len(range(0, a.shape[1] - w + 1, hop))
    windows = hop_windows(a, 0, k, w, hop)
    t = np.asarray(t0s)[:, None] + np.arange(0, k * hop, hop) / cfg.rate_hz
    live = _dead_runs(make_rng(seed + 2), a.shape[0], k)
    fleet = FleetDetector(members, cfg)
    want = fleet.step(windows, t, active=live)
    n = len(members)
    for i, member in enumerate(members):
        det = NodeDetector(
            member.node_id, member.position, cfg, member.row, member.column
        )
        got = [
            det.process_window(windows[i, j], float(t[i, j]))
            if live[i, j]
            else None
            for j in range(k)
        ]
        assert got == want[i::n]
        assert det.initialized == fleet._seeded[i]
        assert np.float64(det.mean).tobytes() == fleet._mean[i].tobytes()
        assert np.float64(det.std).tobytes() == fleet._std[i].tobytes()


def test_negative_baseline_mean_raises_in_both():
    # A negative m'_T makes D_max = M m'_T negative: both bodies refuse.
    cfg = NodeDetectorConfig(init_windows=1)
    w = cfg.window_samples
    windows = np.stack([np.full(w, -1.0), np.zeros(w)])
    det = NodeDetector(0, Position(0.0, 0.0), cfg)
    assert det.process_window(windows[0], 0.0) is None
    with pytest.raises(ConfigurationError, match="D_max"):
        det.process_window(windows[1], 2.0)
    fleet = FleetDetector(_members(1), cfg)
    with pytest.raises(ConfigurationError, match="D_max"):
        fleet.step(windows[None], np.array([[0.0, 2.0]]))


@pytest.mark.parametrize("m, af, bursts", [(2.0, 0.6, 2), (1.0, 0.3, 20)])
def test_traced_block_walk_emits_oracle_events(m, af, bursts):
    # One sparse and one report-dense fleet: a whole-stream walk, then
    # a masked walk of the same windows in pieces, carrying the state.
    # The kernel replays the per-window event stream from its
    # evaluated and reporting masks.
    cfg = NodeDetectorConfig(m=m, af_threshold=af)
    a, t0s = _record(8, MAX_SAMPLES, bursts, seed=41)
    w, hop = cfg.window_samples, cfg.hop_samples
    k = len(range(0, a.shape[1] - w + 1, hop))
    windows = hop_windows(a, 0, k, w, hop)
    t = np.asarray(t0s)[:, None] + np.arange(0, k * hop, hop) / cfg.rate_hz
    rng = make_rng(43)
    live = _dead_runs(rng, 8, k)
    cuts = _cuts(rng, k, 40)
    events = []
    for cls in (LockstepFleetDetector, FleetDetector):
        trace = InMemorySink()
        tracer = Tracer([trace], clock=ManualClock(tick_s=0.001))
        fleet = cls(_members(8), cfg, tracer=tracer)
        fleet.process_samples(a, t0s)
        for lo, hi in pairwise(cuts):
            fleet.step(windows[:, lo:hi], t[:, lo:hi], active=live[:, lo:hi])
        events.append(trace.events)
    names = {e.name for e in events[0]}
    assert {"fleet_step", "report_onset", "report_clear", "alarm"} <= names
    assert events[1] == events[0]

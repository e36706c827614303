"""Fleet detection throughput — lockstep walk vs per-node window loop.

The scenario runners historically looped a per-node detector over the
fleet, paying the Python window walk once per node; the reference here
is that loop, each node's :meth:`NodeDetector.process_window` fed every
window of :func:`window_starts` in turn.
:class:`FleetDetector` swaps the loops — one walk over windows with
``(nodes,)``-shaped vector steps — and must be **bit-identical** to the
per-node reference while running at least 5x faster on the 64-node /
400 s workload.  The chunked :class:`FleetStream` driver additionally
bounds peak detection memory by O(nodes x chunk), not
O(nodes x duration), which the tracemalloc test pins down.
"""

from __future__ import annotations

import statistics
import time
import tracemalloc

import numpy as np

from repro.detection.fleet import FleetDetector, FleetMember, FleetStream
from repro.detection.node_detector import NodeDetector, NodeDetectorConfig
from repro.rng import make_rng
from repro.types import Position
from tests.detection.oracles import node_window_walk

RATE_HZ = 50.0
DURATION_S = 400.0
SEED = 29
#: Streaming chunk for the memory test (10 s of samples).
CHUNK = 500


def _config() -> NodeDetectorConfig:
    return NodeDetectorConfig(m=2.0, af_threshold=0.5)


def _members(n: int) -> list[FleetMember]:
    return [
        FleetMember(
            node_id=i,
            position=Position(25.0 * (i % 8), 25.0 * (i // 8)),
            row=i // 8,
            column=i % 8,
        )
        for i in range(n)
    ]


def _streams(n_nodes: int, n_samples: int, seed: int = SEED) -> np.ndarray:
    """Rectified ambient-like streams with staggered bursts on half the
    fleet, so the walk exercises both the quiet-update and report paths."""
    rng = make_rng(seed)
    a = np.abs(rng.normal(1.0, 0.5, (n_nodes, n_samples)))
    for i in range(0, n_nodes, 2):
        start = n_samples // 4 + 37 * i
        a[i, start : start + 600] += 6.0
    return a


def _t0s(n: int) -> list[float]:
    # Small per-node clock offsets, as in a real deployment.
    return [0.013 * i for i in range(n)]


def _reference(a, t0s, cfg, members):
    out = {}
    for i, m in enumerate(members):
        det = NodeDetector(
            m.node_id, m.position, cfg, row=m.row, column=m.column
        )
        out[m.node_id] = node_window_walk(det, a[i], t0s[i])
    return out


#: Timed pairs of a speed-up gate.
PAIRS = 5


def median_pair_speedup(fast, slow, pairs: int = PAIRS):
    """``(speedup, t_fast, t_slow)``: the median over ``pairs`` pairs of
    the slow arm's time over the fast arm's, and each arm's median [s].

    A pair runs the slow arm and then the fast one, so a host that
    speeds up or slows down mid-bench moves both arms of a pair alike,
    where timing every round of one arm before the other would move
    the ratio.
    """
    runs = []
    for _ in range(pairs):
        start = time.perf_counter()
        slow()
        t_slow = time.perf_counter() - start
        start = time.perf_counter()
        fast()
        t_fast = time.perf_counter() - start
        runs.append((t_slow / t_fast, t_fast, t_slow))
    speedup, t_fast, t_slow = (statistics.median(col) for col in zip(*runs))
    return speedup, t_fast, t_slow


def test_bench_fleet_detection_64(once):
    n = 64
    a = _streams(n, int(DURATION_S * RATE_HZ))
    t0s = _t0s(n)
    cfg = _config()
    members = _members(n)

    fleet = once(
        lambda: FleetDetector(members, cfg).process_samples(a, t0s)
    )

    # Bit-identical reports on every node.
    assert fleet == _reference(a, t0s, cfg, members)
    assert sum(len(v) for v in fleet.values()) > 0

    speedup, t_fleet, t_loop = median_pair_speedup(
        lambda: FleetDetector(members, cfg).process_samples(a, t0s),
        lambda: _reference(a, t0s, cfg, members),
    )
    print()
    print(
        f"fleet detection ({n} nodes, {DURATION_S:.0f} s): "
        f"lockstep {t_fleet * 1e3:.0f} ms, per-node "
        f"{t_loop * 1e3:.0f} ms, median pair speedup {speedup:.1f}x"
    )
    assert speedup >= 5.0


def test_bench_fleet_detection_256(once):
    # Scale variant: 4x the fleet on a shorter record; parity is
    # spot-checked on a stride of rows (mixing burst and quiet nodes)
    # to keep the per-node reference from dominating the bench.
    n = 256
    a = _streams(n, int(200.0 * RATE_HZ))
    t0s = _t0s(n)
    cfg = _config()
    members = _members(n)

    fleet = once(
        lambda: FleetDetector(members, cfg).process_samples(a, t0s)
    )

    sampled = members[::15]
    assert any(m.node_id % 2 == 0 for m in sampled)
    assert any(m.node_id % 2 == 1 for m in sampled)
    for m in sampled:
        det = NodeDetector(
            m.node_id, m.position, cfg, row=m.row, column=m.column
        )
        assert fleet[m.node_id] == node_window_walk(
            det, a[m.node_id], t0s[m.node_id]
        )
    assert sum(len(v) for v in fleet.values()) > 0


def test_bench_fleet_chunked_memory():
    # The streaming driver must hold O(nodes x chunk) samples, not the
    # whole record.  The generator is pointwise in the global sample
    # index (no RNG state), so chunked and monolithic inputs are
    # bit-identical by construction.
    n = 64
    n_samples = int(DURATION_S * RATE_HZ)
    cfg = _config()
    members = _members(n)
    t0s = _t0s(n)
    rows = np.arange(n, dtype=float)[:, None]
    even_rows = (np.arange(n) % 2 == 0)[:, None]

    def block(lo: int, hi: int) -> np.ndarray:
        idx = np.arange(lo, hi, dtype=float)[None, :]
        a = 1.0 + np.abs(np.sin(0.37 * idx + rows))
        a = a + 6.0 * (
            (idx > 10_000.0) & (idx < 12_000.0) & even_rows
        )
        return a

    tracemalloc.start()
    full_matrix = block(0, n_samples)
    full = FleetDetector(members, cfg).process_samples(full_matrix, t0s)
    _, peak_full = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    del full_matrix

    tracemalloc.start()
    stream = FleetStream(FleetDetector(members, cfg), t0s)
    for lo in range(0, n_samples, CHUNK):
        stream.push(block(lo, min(lo + CHUNK, n_samples)))
    chunked = stream.finish()
    _, peak_chunked = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    assert chunked == full
    print()
    print(
        f"detection peak memory ({n} nodes, {n_samples} samples, "
        f"chunk {CHUNK}): full {peak_full / 1e6:.2f} MB, "
        f"chunked {peak_chunked / 1e6:.2f} MB"
    )
    # Chunked peak is bounded by a small multiple of the working set
    # (chunk + retained window/hop tail per node), independent of the
    # record length; the full-matrix path scales with the record.
    working_set = n * (CHUNK + cfg.window_samples + cfg.hop_samples) * 8
    assert peak_chunked < 8 * working_set
    assert peak_chunked < peak_full / 4

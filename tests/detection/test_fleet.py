"""Equivalence suite: the fleet engine vs the per-node reference.

The fleet-vectorized detector's contract is *bit-identical* reports:
every test here compares :class:`FleetDetector` (and its chunked
:class:`FleetStream` driver) against per-node :class:`NodeDetector`
window walks with ``==`` on whole report lists — no tolerances.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.detection.fleet import FleetDetector, FleetMember
from repro.detection.node_detector import (
    NodeDetector,
    NodeDetectorConfig,
    window_starts,
)
from repro.errors import ConfigurationError, SignalLengthError
from repro.rng import make_rng
from repro.types import Position
from tests.detection.oracles import node_window_walk


def make_members(n: int) -> list[FleetMember]:
    return [
        FleetMember(
            node_id=i,
            position=Position(25.0 * i, 10.0 * (i % 3)),
            row=i % 3,
            column=i // 3,
        )
        for i in range(n)
    ]


def make_streams(
    n_nodes: int, n_samples: int, seed: int = 0, burst: bool = True
) -> np.ndarray:
    """Plausible preprocessed streams: rectified noise + a burst."""
    rng = make_rng(seed)
    a = np.abs(rng.normal(3.0, 1.0, size=(n_nodes, n_samples)))
    if burst:
        for i in range(n_nodes):
            lo = int(rng.integers(n_samples // 3, 2 * n_samples // 3))
            width = int(rng.integers(80, 200))
            a[i, lo : lo + width] += np.abs(
                rng.normal(25.0, 5.0, size=min(width, n_samples - lo))
            )
    return a


def reference_reports(
    a: np.ndarray,
    t0s: list[float],
    cfg: NodeDetectorConfig,
    members: list[FleetMember],
) -> dict[int, list]:
    out = {}
    for i, m in enumerate(members):
        det = NodeDetector(
            m.node_id, m.position, cfg, row=m.row, column=m.column
        )
        out[m.node_id] = node_window_walk(det, a[i], t0s[i])
    return out


CONFIG_VARIANTS = [
    {},
    {"m": 1.2, "af_threshold": 0.3},
    {"m": 3.0, "af_threshold": 0.8},
    {"hop_s": 0.7},
    {"init_windows": 2},
    {"beta1": 1.0, "beta2": 1.0},
]


class TestFleetDetectorEquivalence:
    @pytest.mark.parametrize("variant", CONFIG_VARIANTS)
    def test_bit_identical_across_configs(self, variant):
        cfg = NodeDetectorConfig(**variant)
        members = make_members(7)
        a = make_streams(7, 2400, seed=42)
        t0s = [0.0] * 7
        fleet = FleetDetector(members, cfg)
        assert fleet.process_samples(a, t0s) == reference_reports(
            a, t0s, cfg, members
        )

    def test_bit_identical_with_per_row_t0s(self):
        cfg = NodeDetectorConfig()
        members = make_members(5)
        a = make_streams(5, 2000, seed=7)
        t0s = [0.0, 0.013, -0.4, 100.0, 7.5]
        fleet = FleetDetector(members, cfg)
        assert fleet.process_samples(a, t0s) == reference_reports(
            a, t0s, cfg, members
        )

    def test_bit_identical_on_corrupted_streams(self):
        # Sensor-fault shapes: stuck-at rows, huge spikes, zero runs.
        cfg = NodeDetectorConfig(m=1.5, af_threshold=0.4)
        members = make_members(6)
        a = make_streams(6, 2200, seed=3)
        a[1, :] = 0.0                      # dead sensor
        a[2, 500:1500] = 4096.0            # stuck at full scale
        a[3, ::37] = 1e6                   # periodic spikes
        a[4, 300:400] = np.abs(
            make_rng(9).normal(0.0, 1e-9, size=100)
        )                                  # near-silent stretch
        t0s = [0.0] * 6
        fleet = FleetDetector(members, cfg)
        assert fleet.process_samples(a, t0s) == reference_reports(
            a, t0s, cfg, members
        )

    def test_trailing_window_matches_reference(self):
        # Off-hop-grid length: both paths evaluate the right-aligned tail.
        cfg = NodeDetectorConfig()
        n = cfg.window_samples * 5 + 27
        members = make_members(4)
        a = make_streams(4, n, seed=11)
        starts = window_starts(cfg, n)
        assert starts[-1] == n - cfg.window_samples
        t0s = [0.0] * 4
        fleet = FleetDetector(members, cfg)
        assert fleet.process_samples(a, t0s) == reference_reports(
            a, t0s, cfg, members
        )

    def test_active_mask_matches_skipped_windows(self):
        # Masking (row, k) must equal a reference walk that skips the
        # same windows (a crashed node's feed never runs).
        cfg = NodeDetectorConfig(m=1.5, af_threshold=0.4)
        members = make_members(5)
        a = make_streams(5, 2400, seed=23)
        starts = window_starts(cfg, a.shape[1])
        rng = make_rng(99)
        mask = rng.random((5, len(starts))) > 0.3
        fleet = FleetDetector(members, cfg)
        got = {m.node_id: [] for m in members}
        w = cfg.window_samples
        for k, start in enumerate(starts):
            reports = fleet.step(
                a[:, start : start + w],
                [start / cfg.rate_hz] * 5,
                active=mask[:, k],
            )
            for m, r in zip(members, reports):
                if r is not None:
                    got[m.node_id].append(r)
        want = {}
        for i, m in enumerate(members):
            det = NodeDetector(
                m.node_id, m.position, cfg, row=m.row, column=m.column
            )
            reports = []
            for k, start in enumerate(starts):
                if not mask[i, k]:
                    continue
                r = det.process_window(
                    a[i, start : start + cfg.window_samples],
                    start / cfg.rate_hz,
                )
                if r is not None:
                    reports.append(r)
            want[m.node_id] = reports
        assert got == want

    def test_single_node_fleet(self):
        cfg = NodeDetectorConfig()
        members = make_members(1)
        a = make_streams(1, 1500, seed=5)
        fleet = FleetDetector(members, cfg)
        assert fleet.process_samples(a, [0.0]) == reference_reports(
            a, [0.0], cfg, members
        )


class TestFleetStreamEquivalence:
    @pytest.mark.parametrize("chunk", [64, 100, 137, 500, 5000])
    def test_chunked_equals_unchunked(self, chunk):
        cfg = NodeDetectorConfig()
        members = make_members(6)
        a = make_streams(6, 3977, seed=13)  # off-grid tail included
        t0s = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]
        want = FleetDetector(members, cfg).process_samples(a, t0s)
        stream = FleetDetector(members, cfg).stream(t0s)
        for lo in range(0, a.shape[1], chunk):
            stream.push(a[:, lo : lo + chunk])
        assert stream.finish() == want

    def test_ragged_chunk_sizes(self):
        cfg = NodeDetectorConfig(hop_s=0.7)
        members = make_members(4)
        a = make_streams(4, 2901, seed=17)
        want = FleetDetector(members, cfg).process_samples(a, [0.0] * 4)
        stream = FleetDetector(members, cfg).stream([0.0] * 4)
        rng = make_rng(31)
        lo = 0
        while lo < a.shape[1]:
            step = int(rng.integers(1, 400))
            stream.push(a[:, lo : lo + step])
            lo += step
        assert stream.finish() == want

    def test_buffer_stays_bounded(self):
        cfg = NodeDetectorConfig()
        members = make_members(3)
        a = make_streams(3, 6000, seed=2, burst=False)
        stream = FleetDetector(members, cfg).stream([0.0] * 3)
        bound = cfg.window_samples + cfg.hop_samples
        for lo in range(0, 6000, 150):
            stream.push(a[:, lo : lo + 150])
            assert stream._buf.shape[1] <= bound + 150
        stream.finish()

    def test_finish_is_idempotent(self):
        cfg = NodeDetectorConfig()
        members = make_members(2)
        a = make_streams(2, 800, seed=4)
        stream = FleetDetector(members, cfg).stream([0.0, 0.0])
        stream.push(a)
        first = stream.finish()
        assert stream.finish() is first

    def test_too_short_stream_raises(self):
        cfg = NodeDetectorConfig()
        stream = FleetDetector(make_members(2), cfg).stream([0.0, 0.0])
        stream.push(np.zeros((2, cfg.window_samples - 1)))
        with pytest.raises(SignalLengthError):
            stream.finish()

    def test_push_after_finish_raises(self):
        cfg = NodeDetectorConfig()
        stream = FleetDetector(make_members(2), cfg).stream([0.0, 0.0])
        stream.push(np.ones((2, cfg.window_samples)))
        stream.finish()
        with pytest.raises(ConfigurationError):
            stream.push(np.ones((2, 10)))


class TestFleetDetectorValidation:
    def test_empty_members_rejected(self):
        with pytest.raises(ConfigurationError):
            FleetDetector([])

    def test_wrong_shape_rejected(self):
        fleet = FleetDetector(make_members(3))
        with pytest.raises(ConfigurationError):
            fleet.step(np.zeros((2, 100)), [0.0, 0.0])

    def test_empty_window_rejected(self):
        fleet = FleetDetector(make_members(2))
        with pytest.raises(SignalLengthError):
            fleet.step(np.zeros((2, 0)), [0.0, 0.0])

    def test_t0s_length_mismatch_rejected(self):
        fleet = FleetDetector(make_members(2))
        with pytest.raises(ConfigurationError):
            fleet.step(np.zeros((2, 100)), [0.0])

    def test_bad_active_mask_rejected(self):
        fleet = FleetDetector(make_members(2))
        with pytest.raises(ConfigurationError):
            fleet.step(np.zeros((2, 100)), [0.0, 0.0], active=np.ones(3, bool))

    def test_short_samples_rejected(self):
        fleet = FleetDetector(make_members(2))
        w = fleet.config.window_samples
        with pytest.raises(SignalLengthError):
            fleet.process_samples(np.zeros((2, w - 1)), [0.0, 0.0])

    def test_from_deployment_mirrors_nodes(self):
        from repro.scenario.presets import paper_deployment

        dep = paper_deployment(rows=2, columns=3, seed=1)
        fleet = FleetDetector.from_deployment(dep)
        assert fleet.n_nodes == 6
        for member, node in zip(fleet.members, dep):
            assert member.node_id == node.node_id
            assert member.row == node.row
            assert member.column == node.column

"""Oracle-parity and streaming-fusion tests for the scenario runners.

Each runner runs one lockstep fleet detection walk; it must produce
*identical* results to the per-node reference walks kept in
:mod:`tests.scenario.oracles`, and the streaming synthesis->detection
path must reproduce the monolithic offline run report for report, on
hand-picked and on generated chunkings, and leave every battery as the
offline synthesis does (run with ``HYPOTHESIS_PROFILE=ci`` for ten
times the generated examples).
"""

from __future__ import annotations

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.detection.dutycycle import DutyCycleConfig
from repro.detection.node_detector import NodeDetectorConfig, merge_reports
from repro.detection.preprocess import PreprocessConfig
from repro.errors import ConfigurationError
from repro.faults.plan import FaultPlan, NodeCrash
from repro.physics.sinusoids import BLOCK
from repro.scenario import runner
from repro.scenario.digest import scenario_digest
from repro.scenario.presets import paper_scenario
from repro.scenario.runner import (
    FleetRecording,
    run_dutycycled_scenario,
    run_network_scenario,
    run_offline_scenario,
)
from repro.scenario.streaming import (
    StreamingFleetSynthesizer,
    run_streaming_scenario,
)
from repro.scenario.synthesis import synthesize_fleet_traces
from tests.scenario import oracles

SEED = 23

CRASH_PLAN = FaultPlan(
    node_crashes=(
        NodeCrash(2, 40.0, reboot_after_s=30.0),
        NodeCrash(5, 60.0),  # never reboots
        NodeCrash(7, 0.0, reboot_after_s=20.0),
    )
)


#: The detector of every streaming run: a streamable filter.
STREAM_DETECTOR = NodeDetectorConfig(
    m=2.0,
    af_threshold=0.5,
    preprocess=PreprocessConfig(filter_kind="butter-causal"),
)


def _scenario(seed=SEED):
    return paper_scenario(rows=3, columns=3, duration_s=120.0, seed=seed)


def _detector(**kw):
    return NodeDetectorConfig(m=2.0, af_threshold=0.5, **kw)


class TestOfflineEngineParity:
    def test_fleet_matches_reference(self):
        dep, ship, synth = _scenario()
        det = _detector()
        traces = synthesize_fleet_traces(dep, [ship], synth, seed=SEED)
        result = run_offline_scenario(
            dep,
            [ship],
            detector_config=det,
            recording=FleetRecording.from_traces(dep, traces),
        )
        reference = oracles.offline_reports(dep, traces, det)
        assert result.reports_by_node == reference
        assert result.merged_by_node == {
            nid: merge_reports(reports) for nid, reports in reference.items()
        }
        assert sum(len(v) for v in reference.values()) > 0


class TestNetworkEngineParity:
    def _pair(self, monkeypatch, faults=None):
        """The same run with the fleet precompute and with the oracle.

        The oracle ignores the runner's window plan and applies its own
        crash rule (the network installs its faults at time 0).
        """
        results = []
        for oracle in (False, True):
            dep, ship, synth = _scenario()
            with monkeypatch.context() as mp:
                if oracle:
                    mp.setattr(
                        runner,
                        "_fleet_network_outcomes",
                        lambda dep, rec, det, plan: oracles.network_outcomes(
                            dep, rec, det, faults, 0.0
                        ),
                    )
                results.append(
                    run_network_scenario(
                        dep,
                        [ship],
                        synthesis_config=synth,
                        faults=faults,
                        seed=SEED,
                    )
                )
        return results

    def test_fleet_matches_reference(self, monkeypatch):
        a, b = self._pair(monkeypatch)
        assert a.decisions == b.decisions
        assert a.mac_stats == b.mac_stats
        assert a.sink_frames == b.sink_frames
        assert a.resyncs_performed == b.resyncs_performed
        assert a.clock_rms_error_s == b.clock_rms_error_s
        assert scenario_digest(a) == scenario_digest(b)

    def test_fleet_matches_reference_with_crashes(self, monkeypatch):
        a, b = self._pair(monkeypatch, CRASH_PLAN)
        assert a.decisions == b.decisions
        assert a.mac_stats == b.mac_stats
        assert a.fault_stats == b.fault_stats
        assert a.sink_frames == b.sink_frames
        assert scenario_digest(a) == scenario_digest(b)

    @pytest.mark.parametrize("faults", [None, CRASH_PLAN])
    @pytest.mark.parametrize("now", [0.0, 50.0])
    def test_precompute_rows_match_oracle(self, faults, now):
        dep, ship, synth = _scenario()
        det = _detector()
        rec = FleetRecording.from_traces(
            dep, synthesize_fleet_traces(dep, [ship], synth, seed=SEED)
        )
        plan = runner._window_plan(rec, det, faults, now)
        rows = oracles.outcome_rows(
            runner._fleet_network_outcomes(dep, rec, det, plan)
        )
        assert rows == oracles.outcome_rows(
            oracles.network_outcomes(dep, rec, det, faults, now)
        )
        if faults is not None:
            # Crash windows are masked out, not evaluated.
            assert len(rows[5]) < len(rows[0])


class TestDutyCycleEngineParity:
    def _pair(self, monkeypatch, duty):
        """The same run with the folded walk and with the oracle."""
        results = []
        for oracle in (False, True):
            dep, ship, synth = _scenario()
            with monkeypatch.context() as mp:
                if oracle:
                    mp.setattr(
                        runner,
                        "_dutycycled_reports",
                        oracles.sequential_dutycycle,
                    )
                results.append(
                    run_dutycycled_scenario(
                        dep,
                        [ship],
                        synthesis_config=synth,
                        duty_config=duty,
                        seed=SEED,
                    )
                )
        return results

    @pytest.mark.parametrize(
        "duty",
        [
            None,
            DutyCycleConfig(sentinel_fraction=0.5, rotation_period_s=30.0),
            DutyCycleConfig(coarse_rate_hz=None),
        ],
    )
    def test_fleet_matches_reference(self, monkeypatch, duty):
        a, b = self._pair(monkeypatch, duty)
        assert a.reports_by_node == b.reports_by_node
        assert a.merged_by_node == b.merged_by_node
        assert a.first_alarm_time == b.first_alarm_time


class TestStreamingScenario:
    @pytest.mark.parametrize("kind", ["butter-causal"])
    def test_matches_monolithic_offline(self, kind):
        det = _detector()
        det = replace(det, preprocess=replace(det.preprocess, filter_kind=kind))
        dep1, ship1, synth1 = _scenario()
        a = run_offline_scenario(
            dep1,
            [ship1],
            detector_config=det,
            synthesis_config=synth1,
            seed=SEED,
        )
        dep2, ship2, synth2 = _scenario()
        b = run_streaming_scenario(
            dep2,
            [ship2],
            detector_config=det,
            synthesis_config=synth2,
            seed=SEED,
            chunk_s=17.3,  # deliberately off the window/hop grid
        )
        assert a.reports_by_node == b.reports_by_node
        assert a.merged_by_node == b.merged_by_node
        assert a.cluster_event == b.cluster_event

    def test_zero_phase_filter_rejected(self):
        dep, ship, synth = _scenario()
        with pytest.raises(ConfigurationError, match="stream"):
            run_streaming_scenario(
                dep, [ship], synthesis_config=synth, seed=SEED
            )

    def test_default_chunk_holds_no_full_record_array(self):
        # The runner's own chunk_s default: a whole 16-node, 1,200 s
        # run (synthesis, preprocessing, window walk, fusion) peaks
        # under half of one float64 slab of the record.
        dep, ship, synth = paper_scenario(
            rows=4, columns=4, duration_s=1200.0, seed=SEED
        )
        tracemalloc.start()
        try:
            out = run_streaming_scenario(
                dep,
                [ship],
                detector_config=STREAM_DETECTOR,
                synthesis_config=synth,
                seed=SEED,
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sum(len(r) for r in out.reports_by_node.values()) > 0
        slab_bytes = 16 * int(synth.duration_s * STREAM_DETECTOR.rate_hz) * 8
        assert peak < slab_bytes / 2

    def test_bad_chunk_rejected(self):
        dep, ship, synth = _scenario()
        det = _detector()
        det = replace(
            det,
            preprocess=replace(det.preprocess, filter_kind="butter-causal"),
        )
        with pytest.raises(ConfigurationError):
            run_streaming_scenario(
                dep,
                [ship],
                detector_config=det,
                synthesis_config=synth,
                seed=SEED,
                chunk_s=0.0,
            )


class TestStreamingSynthesizer:
    def test_z_counts_match_monolithic_traces(self):
        # Chunked digitisation must reproduce synthesize_fleet_traces'
        # z streams bit for bit (same ambient realisation, same
        # per-device noise draws).
        dep1, ship1, synth1 = _scenario()
        traces = synthesize_fleet_traces(dep1, [ship1], synth1, seed=SEED)
        dep2, ship2, synth2 = _scenario()
        source = StreamingFleetSynthesizer(dep2, [ship2], synth2, seed=SEED)
        chunks = list(source.chunks(971))
        Z = np.concatenate(chunks, axis=1)
        for i, node in enumerate(dep2):
            assert np.array_equal(Z[i], traces[node.node_id].z)
        assert source.t0s == [
            traces[n.node_id].t0 for n in dep2
        ]

    def test_horizontal_axes_rejected(self):
        dep, ship, synth = _scenario()
        synth = replace(synth, include_horizontal=True)
        with pytest.raises(ConfigurationError, match="z axis"):
            StreamingFleetSynthesizer(dep, [ship], synth, seed=SEED)

    def test_exhausted_source_returns_none(self):
        dep, ship, synth = _scenario()
        source = StreamingFleetSynthesizer(dep, [ship], synth, seed=SEED)
        while source.next_chunk(4096) is not None:
            pass
        assert source.samples_remaining == 0
        assert source.next_chunk(4096) is None

    def test_holds_no_full_record_array(self):
        # Chunked synthesis never materialises a (nodes x samples)
        # array: the peak traced allocation over a whole 16-node, 600 s
        # stream stays well under one float64 slab of the record.
        dep, ship, synth = paper_scenario(
            rows=4, columns=4, duration_s=600.0, seed=SEED
        )
        tracemalloc.start()
        try:
            source = StreamingFleetSynthesizer(dep, [ship], synth, seed=SEED)
            for _ in source.chunks(500):
                pass
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        slab_bytes = source.n_nodes * source.n_samples * 8
        assert peak < slab_bytes / 2

    def test_setup_memory_independent_of_duration(self):
        # Construction keeps no sample grid: its peak is one block of
        # the discarded x/y noise draws (65,536 normals), however long
        # the watch.  A 4 h grid would be 5.8 MB.
        dep, ship, synth = paper_scenario(
            rows=2, columns=2, duration_s=4 * 3600.0, seed=SEED
        )
        tracemalloc.start()
        try:
            source = StreamingFleetSynthesizer(dep, [ship], synth, seed=SEED)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert source.n_samples == 720_000
        assert peak < 2 * 65_536 * 8


def _chunk_lengths(n: int, least: int = 1) -> st.SearchStrategy[int]:
    """Chunk lengths for an ``n``-sample record, from ``least`` samples
    to past its end: under one hop, whole synthesis blocks, off the
    block grid, longer than the record."""
    hop = STREAM_DETECTOR.hop_samples
    return st.one_of(
        st.integers(least, hop - 1),
        st.integers(1, n // BLOCK).map(lambda blocks: blocks * BLOCK),
        st.integers(hop, n).filter(lambda k: k % BLOCK != 0),
        st.integers(n + 1, 2 * n),
    )


@st.composite
def _streamed_scenarios(draw):
    side = draw(st.integers(2, 3))
    duration_s = draw(st.integers(40, 120))
    n = int(duration_s * STREAM_DETECTOR.rate_hz)
    lengths = draw(st.lists(_chunk_lengths(n), min_size=1, max_size=6))
    # The runner makes at most ~200 chunks (one-sample chunks are the
    # synthesizer's, above): each costs a pass over every node.
    chunk = draw(_chunk_lengths(n, least=-(-n // 200)))
    return side, float(duration_s), draw(st.integers(0, 2**20)), lengths, chunk


def _batteries(dep):
    return [
        (node.mote.battery.remaining_j, node.mote.battery.breakdown())
        for node in dep
    ]


@given(case=_streamed_scenarios())
@settings(max_examples=settings.default.max_examples // 10, deadline=None)
def test_streaming_equals_offline_on_generated_chunkings(case):
    """Chunked synthesis reproduces the offline z counts and batteries
    bit for bit, and the streaming runner the offline
    ``"butter-causal"`` reports and batteries, whatever the chunking."""
    side, duration_s, seed, lengths, chunk = case

    def scenario():
        return paper_scenario(
            rows=side, columns=side, duration_s=duration_s, seed=seed
        )

    dep, ship, synth = scenario()
    traces = synthesize_fleet_traces(dep, [ship], synth, seed=seed)
    offline = run_offline_scenario(
        dep,
        [ship],
        detector_config=STREAM_DETECTOR,
        recording=FleetRecording.from_traces(dep, traces),
    )
    offline_batteries = _batteries(dep)

    # The drawn lengths in turn, then whatever is left in one chunk.
    dep, ship, synth = scenario()
    source = StreamingFleetSynthesizer(dep, [ship], synth, seed=seed)
    blocks = [source.next_chunk(k) for k in [*lengths, source.n_samples]]
    assert source.next_chunk(1) is None
    z = np.concatenate([b for b in blocks if b is not None], axis=1)
    assert z.shape == (side * side, source.n_samples)
    for row, node in zip(z, dep):
        assert np.array_equal(row, traces[node.node_id].z)
    assert _batteries(dep) == offline_batteries

    dep, ship, synth = scenario()
    streamed = run_streaming_scenario(
        dep,
        [ship],
        detector_config=STREAM_DETECTOR,
        synthesis_config=synth,
        seed=seed,
        chunk_s=chunk / STREAM_DETECTOR.rate_hz,
    )
    assert streamed.reports_by_node == offline.reports_by_node
    assert streamed.merged_by_node == offline.merged_by_node
    assert streamed.cluster_event == offline.cluster_event
    assert _batteries(dep) == offline_batteries

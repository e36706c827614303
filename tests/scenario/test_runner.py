"""Tests for the offline and networked scenario runners."""

from __future__ import annotations

from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from repro.detection.cluster import ClusterEvent, TemporaryClusterConfig
from repro.detection.node_detector import NodeDetectorConfig
from repro.detection.preprocess import PreprocessConfig, preprocess_z_counts_batch
from repro.detection.sid import SIDNodeConfig
from repro.errors import ConfigurationError, SignalLengthError
from repro.network.selfheal import SelfHealingConfig
from repro.scenario import runner
from repro.scenario.deployment import GridDeployment
from repro.scenario.presets import paper_scenario, paper_ship
from repro.scenario.runner import (
    FleetRecording,
    run_dutycycled_scenario,
    run_network_scenario,
    run_offline_scenario,
    truth_windows_for,
)
from repro.scenario.streaming import run_streaming_scenario
from repro.scenario.synthesis import SynthesisConfig, synthesize_fleet_traces
from repro.sensors.imote2 import MoteConfig
from repro.sensors.sampler import Sampler


@pytest.fixture
def small_setup():
    dep = GridDeployment(4, 3, seed=21)
    ship = paper_ship(dep, cross_time_s=100.0, column_gap=1.5)
    synth = SynthesisConfig(duration_s=200.0)
    return dep, ship, synth


def test_truth_windows_follow_wake(small_setup):
    dep, ship, _ = small_setup
    windows = truth_windows_for(dep, [ship])
    wake = ship.wake()
    for node in dep:
        w = windows[node.node_id][0]
        arrival = wake.arrival_time(node.anchor)
        assert w.start < arrival < w.end


def test_offline_scenario_detects(small_setup):
    dep, ship, synth = small_setup
    res = run_offline_scenario(
        dep,
        [ship],
        detector_config=NodeDetectorConfig(m=2.0, af_threshold=0.4),
        synthesis_config=synth,
        seed=1,
    )
    n_reporting = sum(1 for v in res.merged_by_node.values() if v)
    assert n_reporting >= 6  # most of the 12 nodes see the wake


def test_offline_no_ship_few_reports(small_setup):
    dep, _, synth = small_setup
    res = run_offline_scenario(
        dep,
        [],
        detector_config=NodeDetectorConfig(m=3.0, af_threshold=0.6),
        synthesis_config=synth,
        seed=1,
    )
    assert len(res.all_merged) < 5


def test_offline_sequential_clusters(small_setup):
    dep, ship, synth = small_setup
    res = run_offline_scenario(
        dep,
        [ship],
        detector_config=NodeDetectorConfig(m=2.0, af_threshold=0.4),
        cluster_config=TemporaryClusterConfig(min_rows=3),
        synthesis_config=synth,
        seed=2,
    )
    assert len(res.cluster_outcomes) >= 1
    # Every outcome is a valid (event, report) pair.
    for event, report in res.cluster_outcomes:
        assert isinstance(event, ClusterEvent)
        if event != ClusterEvent.CANCELLED_TOO_FEW:
            assert report is not None


def test_offline_reports_sorted(small_setup):
    dep, ship, synth = small_setup
    res = run_offline_scenario(
        dep,
        [ship],
        detector_config=NodeDetectorConfig(m=1.5, af_threshold=0.4),
        synthesis_config=synth,
        seed=4,
    )
    onsets = [r.onset_time for r in res.all_reports]
    assert onsets == sorted(onsets)


def test_network_scenario_runs_to_completion(small_setup):
    dep, ship, synth = small_setup
    res = run_network_scenario(
        dep,
        [ship],
        sid_config=SIDNodeConfig(
            detector=NodeDetectorConfig(m=2.0, af_threshold=0.4),
            cluster=TemporaryClusterConfig(min_rows=3),
        ),
        synthesis_config=synth,
        seed=5,
    )
    assert res.mac_stats["transmissions"] > 0
    assert res.sink_frames >= 0


def test_network_deterministic(small_setup):
    dep1 = GridDeployment(3, 3, seed=31)
    dep2 = GridDeployment(3, 3, seed=31)
    ship1 = paper_ship(dep1, cross_time_s=80.0)
    ship2 = paper_ship(dep2, cross_time_s=80.0)
    synth = SynthesisConfig(duration_s=160.0)
    r1 = run_network_scenario(dep1, [ship1], synthesis_config=synth, seed=9)
    r2 = run_network_scenario(dep2, [ship2], synthesis_config=synth, seed=9)
    assert r1.mac_stats == r2.mac_stats
    assert r1.intrusion_detected == r2.intrusion_detected


class TestDutyCycledRunner:
    def test_sentinels_detect_and_wake_fleet(self, small_setup):
        from repro.detection.dutycycle import DutyCycleConfig
        from repro.scenario.runner import run_dutycycled_scenario

        dep, ship, synth = small_setup
        res = run_dutycycled_scenario(
            dep,
            [ship],
            detector_config=NodeDetectorConfig(m=2.0, af_threshold=0.4),
            duty_config=DutyCycleConfig(sentinel_fraction=0.25),
            synthesis_config=synth,
            seed=1,
        )
        assert res.first_alarm_time is not None
        reporting = sum(1 for v in res.merged_by_node.values() if v)
        # The wake-up lets more nodes than the sentinel share detect.
        assert reporting > len(dep) * 0.25

    def test_energy_summary_exposed(self, small_setup):
        from repro.detection.dutycycle import DutyCycleConfig
        from repro.scenario.runner import run_dutycycled_scenario

        dep, ship, synth = small_setup
        res = run_dutycycled_scenario(
            dep,
            [ship],
            duty_config=DutyCycleConfig(sentinel_fraction=0.5),
            synthesis_config=synth,
            seed=2,
        )
        summary = res.controller.energy_summary(3600.0)
        assert summary["lifetime_gain"] > 1.5

    def test_quiet_sea_mostly_asleep(self, small_setup):
        from repro.detection.dutycycle import DutyCycleConfig
        from repro.scenario.runner import run_dutycycled_scenario

        dep, _, synth = small_setup
        res = run_dutycycled_scenario(
            dep,
            [],
            detector_config=NodeDetectorConfig(m=3.0, af_threshold=0.7),
            duty_config=DutyCycleConfig(sentinel_fraction=0.25),
            synthesis_config=synth,
            seed=3,
        )
        frac = res.controller.active_fraction(50.0, 150.0, dt=10.0)
        assert frac < 0.5


class TestCoarseSentinelPath:
    def test_coarse_rate_changes_behaviour(self, small_setup):
        from repro.detection.dutycycle import DutyCycleConfig
        from repro.scenario.runner import run_dutycycled_scenario

        dep1 = GridDeployment(4, 3, seed=21)
        dep2 = GridDeployment(4, 3, seed=21)
        ship = paper_ship(dep1, cross_time_s=100.0, column_gap=1.5)
        synth = SynthesisConfig(duration_s=200.0)
        full = run_dutycycled_scenario(
            dep1, [ship],
            duty_config=DutyCycleConfig(
                sentinel_fraction=0.25, coarse_rate_hz=None
            ),
            synthesis_config=synth, seed=7,
        )
        coarse = run_dutycycled_scenario(
            dep2, [paper_ship(dep2, cross_time_s=100.0, column_gap=1.5)],
            duty_config=DutyCycleConfig(
                sentinel_fraction=0.25, coarse_rate_hz=10.0
            ),
            synthesis_config=synth, seed=7,
        )
        # Both catch the crossing...
        assert full.first_alarm_time is not None
        assert coarse.first_alarm_time is not None
        # ...but the coarse variant buys more lifetime.
        assert (
            coarse.controller.energy_summary(86400.0)["lifetime_gain"]
            > full.controller.energy_summary(86400.0)["lifetime_gain"]
        )

    def test_coarse_sentinels_still_detect_wake(self, small_setup):
        from repro.detection.dutycycle import DutyCycleConfig
        from repro.scenario.runner import run_dutycycled_scenario
        from repro.scenario.metrics import classify_alarms

        dep, ship, synth = small_setup
        res = run_dutycycled_scenario(
            dep, [ship],
            detector_config=NodeDetectorConfig(m=2.0, af_threshold=0.4),
            duty_config=DutyCycleConfig(
                sentinel_fraction=0.25, coarse_rate_hz=10.0
            ),
            synthesis_config=synth, seed=4,
        )
        tp = 0
        for nid, reports in res.merged_by_node.items():
            ca = classify_alarms(
                reports, res.truth_windows_by_node[nid], tolerance_s=3.0
            )
            tp += ca.true_positives
        assert tp >= len(dep) // 3


class TestFleetInputChecks:
    """Every runner walks one Delta-t window grid at the detector's rate."""

    RUNNERS = {
        "offline": run_offline_scenario,
        "network": run_network_scenario,
        # Healing keeps the event-time feed path; it gets the same check.
        "network_healed": partial(
            run_network_scenario, healing=SelfHealingConfig()
        ),
        "dutycycled": run_dutycycled_scenario,
        "streaming": run_streaming_scenario,
    }

    def _run(self, name, dep, duration_s=20.0):
        det = NodeDetectorConfig(
            m=2.0,
            af_threshold=0.4,
            preprocess=PreprocessConfig(filter_kind="butter-causal"),
        )
        detector = (
            {"sid_config": SIDNodeConfig(detector=det)}
            if name.startswith("network")
            else {"detector_config": det}
        )
        return self.RUNNERS[name](
            dep,
            [paper_ship(dep, cross_time_s=duration_s / 2.0)],
            synthesis_config=SynthesisConfig(duration_s=duration_s),
            seed=5,
            **detector,
        )

    @pytest.mark.parametrize("name", sorted(RUNNERS))
    def test_sample_rate_mismatch_rejected(self, name):
        # 25 Hz motes under the 50 Hz detector: every window would be
        # stamped as if its samples came twice as fast.
        dep = GridDeployment(
            3, 3, seed=5, mote_config=MoteConfig(sample_rate_hz=25.0)
        )
        with pytest.raises(ConfigurationError, match="rate"):
            self._run(name, dep)

    @pytest.mark.parametrize(
        "name", ["offline", "network", "network_healed", "dutycycled"]
    )
    def test_ragged_traces_rejected(self, name):
        dep = GridDeployment(2, 2, seed=5)
        dep.node(0).mote.sampler = Sampler(rate_hz=25.0)
        with pytest.raises(ConfigurationError, match="shared fleet sample grid"):
            self._run(name, dep)

    def test_offline_short_traces_raise_signal_length(self):
        with pytest.raises(SignalLengthError, match="at least one window"):
            self._run("offline", GridDeployment(2, 2, seed=5), duration_s=1.0)


class TestFleetRecording:
    """The z-only stage seam between synthesis and detection."""

    DET = NodeDetectorConfig(m=2.0, af_threshold=0.5)

    @staticmethod
    def _recorded(seed):
        dep, ship, synth = paper_scenario(
            rows=3, columns=3, duration_s=120.0, seed=seed
        )
        traces = synthesize_fleet_traces(dep, [ship], synth, seed=seed)
        return dep, ship, traces

    def test_stacks_z_rows_in_deployment_order(self):
        dep, _, traces = self._recorded(1)
        rec = FleetRecording.from_traces(dep, traces)
        ids = tuple(node.node_id for node in dep)
        assert rec.node_ids == ids
        assert rec.t0s == tuple(traces[nid].t0 for nid in ids)
        assert rec.rate_hz == traces[ids[0]].rate_hz
        assert rec.z.dtype == np.int64
        assert np.array_equal(rec.z, np.stack([traces[nid].z for nid in ids]))

    def test_z_is_read_only(self):
        dep, _, traces = self._recorded(1)
        rec = FleetRecording.from_traces(dep, traces)
        with pytest.raises(ValueError, match="read-only"):
            rec.z[0, 0] = 0
        with pytest.raises(ValueError, match="read-only"):
            rec.z += 1

    def test_mixed_rates_rejected(self):
        dep, _, traces = self._recorded(1)
        nid = dep.node(0).node_id
        traces[nid] = replace(traces[nid], rate_hz=25.0)
        with pytest.raises(ConfigurationError, match="one sample rate"):
            FleetRecording.from_traces(dep, traces)

    @pytest.mark.parametrize("seed", range(10))
    def test_offline_recording_matches_synthesis(self, seed):
        dep, ship, synth = paper_scenario(
            rows=3, columns=3, duration_s=120.0, seed=seed
        )
        synthesised = run_offline_scenario(
            dep, [ship], detector_config=self.DET, synthesis_config=synth,
            seed=seed,
        )
        dep, ship, traces = self._recorded(seed)
        detected = run_offline_scenario(
            dep,
            [ship],
            detector_config=self.DET,
            recording=FleetRecording.from_traces(dep, traces),
        )
        assert synthesised.all_reports
        assert detected == synthesised

    def test_preprocessed_once_per_conditioning_chain(self):
        # Detector settings that differ only in eqs. 4-8 share one
        # read-only filtering; another chain filters afresh.
        dep, _, traces = self._recorded(1)
        rec = FleetRecording.from_traces(dep, traces)
        first, t0s = runner._fleet_samples(rec, self.DET)
        again, _ = runner._fleet_samples(
            rec, replace(self.DET, m=1.0, af_threshold=0.3, init_windows=2)
        )
        assert again is first and t0s == rec.t0s
        assert not first.flags.writeable
        causal = replace(
            self.DET, preprocess=PreprocessConfig(filter_kind="butter-causal")
        )
        other, _ = runner._fleet_samples(rec, causal)
        assert other is not first
        np.testing.assert_array_equal(
            other,
            preprocess_z_counts_batch(rec.z, causal.rate_hz, causal.preprocess),
        )

    def test_replaced_recording_starts_without_samples(self):
        # Sensor faults replace a recording's z: its samples must be
        # filtered from the corrupted counts, never the healthy ones.
        dep, _, traces = self._recorded(1)
        rec = FleetRecording.from_traces(dep, traces)
        healthy, _ = runner._fleet_samples(rec, self.DET)
        corrupted = replace(rec, z=np.where(rec.z > 0, rec.z // 2, rec.z))
        samples, _ = runner._fleet_samples(corrupted, self.DET)
        np.testing.assert_array_equal(
            samples,
            preprocess_z_counts_batch(
                corrupted.z, self.DET.rate_hz, self.DET.preprocess
            ),
        )
        assert not np.array_equal(samples, healthy)

    def test_node_id_mismatch_rejected(self):
        dep, ship, traces = self._recorded(1)
        rec = FleetRecording.from_traces(dep, traces)
        with pytest.raises(ConfigurationError, match="node ids"):
            run_offline_scenario(
                GridDeployment(2, 3, seed=1), [ship], recording=rec
            )

    @pytest.mark.parametrize(
        "synthesis_input",
        [
            {"synthesis_config": SynthesisConfig(duration_s=120.0)},
            {"seed": 1},
        ],
        ids=["synthesis_config", "seed"],
    )
    def test_synthesis_inputs_rejected_with_recording(self, synthesis_input):
        # They would be silently ignored: the recording is already made.
        dep, ship, traces = self._recorded(1)
        rec = FleetRecording.from_traces(dep, traces)
        with pytest.raises(ConfigurationError, match="replaces synthesis"):
            run_offline_scenario(dep, [ship], recording=rec, **synthesis_input)

"""Runner-level tests for fault injection and graceful degradation."""

from __future__ import annotations

import pytest

from repro.detection.cluster import TemporaryClusterConfig
from repro.detection.node_detector import NodeDetectorConfig
from repro.detection.sid import SIDNodeConfig
from repro.errors import ConfigurationError
from repro.faults.plan import (
    BurstLoss,
    ClockSyncFailure,
    FaultPlan,
    NodeCrash,
    SensorFault,
    SensorFaultKind,
)
from repro.network.selfheal import SelfHealingConfig
from repro.scenario.deployment import GridDeployment
from repro.scenario.presets import paper_ship
from repro.scenario.runner import run_network_scenario
from repro.scenario.synthesis import SynthesisConfig
from repro.sensors.accelerometer import Accelerometer


def _setup(seed=31):
    dep = GridDeployment(3, 3, seed=seed)
    ship = paper_ship(dep, cross_time_s=80.0)
    synth = SynthesisConfig(duration_s=160.0)
    return dep, ship, synth


def _cfg():
    return SIDNodeConfig(
        detector=NodeDetectorConfig(m=2.0, af_threshold=0.4),
        cluster=TemporaryClusterConfig(min_rows=3),
    )


def _run(faults=None, seed=9, dep_seed=31, **kwargs):
    dep, ship, synth = _setup(seed=dep_seed)
    return (
        run_network_scenario(
            dep,
            [ship],
            sid_config=_cfg(),
            synthesis_config=synth,
            faults=faults,
            seed=seed,
            **kwargs,
        ),
        dep,
    )


class TestZeroEntropyWhenInactive:
    def test_none_and_empty_plan_bit_for_bit(self):
        r_none, _ = _run(faults=None)
        r_empty, _ = _run(faults=FaultPlan.none())
        assert r_none.decisions == r_empty.decisions
        assert r_none.mac_stats == r_empty.mac_stats
        assert r_none.sink_frames == r_empty.sink_frames
        assert r_none.lost_to_partition == r_empty.lost_to_partition

    def test_unfaulted_fault_stats_empty(self):
        res, _ = _run(faults=None)
        assert res.fault_stats == {}
        assert res.faults_injected == 0
        assert res.degraded_decisions == 0

    def test_resync_does_not_perturb_protocol(self):
        r_sync, _ = _run(resync_interval_s=120.0)
        r_none, _ = _run(resync_interval_s=None)
        assert r_sync.decisions == r_none.decisions
        assert r_sync.mac_stats == r_none.mac_stats


class TestPeriodicResync:
    def test_resyncs_counted_and_bound_clock_error(self):
        r_sync, _ = _run(resync_interval_s=60.0)
        r_none, _ = _run(resync_interval_s=None)
        assert r_none.resyncs_performed == 0
        assert r_sync.resyncs_performed > 0
        assert r_sync.clock_rms_error_s < r_none.clock_rms_error_s

    def test_nonpositive_interval_rejected(self):
        dep, ship, synth = _setup()
        with pytest.raises(ConfigurationError, match="resync_interval_s"):
            run_network_scenario(
                dep,
                [ship],
                sid_config=_cfg(),
                synthesis_config=synth,
                healing=SelfHealingConfig(),
                resync_interval_s=0.0,
                seed=9,
            )
        # Rejected before synthesis: no battery was billed.
        for node in dep:
            battery = node.mote.battery
            assert battery.remaining_j == battery.capacity_j

    def test_sync_failure_suppresses_and_drift_accumulates(self):
        dep, _, _ = _setup()
        plan = FaultPlan(
            sync_failures=tuple(
                ClockSyncFailure(n.node_id) for n in dep
            )
        )
        r_fault, _ = _run(faults=plan, resync_interval_s=60.0)
        r_healthy, _ = _run(resync_interval_s=60.0)
        assert r_fault.resyncs_performed == 0
        assert r_fault.fault_stats["resyncs_suppressed"] > 0
        assert r_fault.clock_rms_error_s > r_healthy.clock_rms_error_s


class TestNodeCrashes:
    def test_crash_all_degrades_gracefully(self):
        dep, _, _ = _setup()
        plan = FaultPlan(
            node_crashes=tuple(
                NodeCrash(n.node_id, at_s=0.0) for n in dep
            )
        )
        res, _ = _run(faults=plan)
        # No crash, no silent zero-report lie: the result says exactly
        # what happened.
        assert res.decisions == ()
        assert not res.intrusion_detected
        assert res.fault_stats["node_crashes"] == len(dep)
        assert res.mac_stats["transmissions"] == 0
        assert res.resyncs_performed == 0

    def test_partial_crashes_counted_exactly(self):
        dep, _, _ = _setup()
        ids = [n.node_id for n in dep]
        plan = FaultPlan(
            node_crashes=(
                NodeCrash(ids[0], at_s=10.0),
                NodeCrash(ids[1], at_s=20.0),
            )
        )
        res, _ = _run(faults=plan)
        assert res.fault_stats["node_crashes"] == 2
        assert res.faults_injected >= 2
        assert res.mac_stats["transmissions"] > 0


class TestSensorFaultsAtRunnerLevel:
    def test_wrapper_installed_and_restored(self):
        dep, _, _ = _setup()
        nid = next(iter(n.node_id for n in dep))
        plan = FaultPlan(
            sensor_faults=(
                SensorFault(
                    nid,
                    SensorFaultKind.STUCK_AT,
                    start_s=0.0,
                    magnitude=500.0,
                ),
            )
        )
        res, dep_used = _run(faults=plan)
        assert res.fault_stats["sensor_faults_injected"] == 1
        assert res.fault_stats["sensor_samples_faulted"] > 0
        for node in dep_used:
            assert type(node.mote.accelerometer) is Accelerometer


class TestBurstLossResilience:
    def test_burst_plus_crashes_run_to_completion(self):
        dep, _, _ = _setup()
        ids = sorted(n.node_id for n in dep)
        n_crash = max(1, len(ids) // 5)  # ~20 % of the fleet
        plan = FaultPlan(
            node_crashes=tuple(
                NodeCrash(nid, at_s=60.0) for nid in ids[:n_crash]
            ),
            burst_loss=BurstLoss(start_s=0.0, duration_s=400.0),
            seed=5,
        )
        res, _ = _run(faults=plan)
        assert res.fault_stats["node_crashes"] == n_crash
        assert res.fault_stats["frames_burst_lost"] > 0
        assert res.mac_stats["transmissions"] > 0
        # The degradation machinery was armed: its counters are present.
        assert "report_retransmits" in res.fault_stats
        assert res.degraded_decisions >= 0

    def test_faulted_run_is_deterministic(self):
        plan = FaultPlan(
            burst_loss=BurstLoss(start_s=0.0, duration_s=400.0), seed=3
        )
        r1, _ = _run(faults=plan)
        r2, _ = _run(faults=plan)
        assert r1.decisions == r2.decisions
        assert r1.mac_stats == r2.mac_stats
        assert r1.fault_stats == r2.fault_stats

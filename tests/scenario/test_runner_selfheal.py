"""Runner-level tests for the self-healing network runtime.

Covers the healing pillars at scenario scope: cold-restart recovery
(blind-window metering, ``persist_baseline``), structured degradation
events when healing is off, and the zero-entropy guarantee that a
``healing=None`` run exports no resilience surface at all.
"""

from __future__ import annotations

import pytest

from repro.detection.cluster import TemporaryClusterConfig
from repro.detection.node_detector import NodeDetectorConfig
from repro.detection.sid import SIDNodeConfig
from repro.errors import ConfigurationError
from repro.faults.plan import FaultPlan
from repro.network.selfheal import OrphanEvent, SelfHealingConfig
from repro.scenario.deployment import GridDeployment
from repro.scenario.presets import paper_ship
from repro.scenario.runner import run_network_scenario
from repro.scenario.synthesis import SynthesisConfig


def _run(faults=None, healing=None, seed=9):
    dep = GridDeployment(3, 3, seed=31)
    ship = paper_ship(dep, cross_time_s=80.0)
    synth = SynthesisConfig(duration_s=160.0)
    cfg = SIDNodeConfig(
        detector=NodeDetectorConfig(m=2.0, af_threshold=0.4),
        cluster=TemporaryClusterConfig(min_rows=3),
    )
    return (
        run_network_scenario(
            dep,
            [ship],
            sid_config=cfg,
            synthesis_config=synth,
            faults=faults,
            healing=healing,
            seed=seed,
        ),
        dep,
    )


#: Both of the sink's forwarders in the 3x3 deployment go down in
#: overlapping windows — the chaos-soak pattern at test scale.
def _chaos_plan() -> FaultPlan:
    return FaultPlan.rolling_crashes(
        [5, 2], first_at_s=60.0, interval_s=30.0, downtime_s=60.0
    )


class TestColdRestartRecovery:
    def test_reboot_cold_restarts_and_meters_blind_window(self):
        res, _ = _run(faults=_chaos_plan(), healing=SelfHealingConfig())
        fs = res.fault_stats
        assert fs["cold_restarts"] == 2
        # The re-warm-up blind window is a real, positive duration.
        assert fs["baseline_blind_window_s"] > 0.0
        assert fs["reroutes"] >= 2
        assert fs["node_reboots"] == 2

    def test_persist_baseline_closes_blind_window(self):
        res, _ = _run(
            faults=_chaos_plan(),
            healing=SelfHealingConfig(persist_baseline=True),
        )
        fs = res.fault_stats
        # Battery-backed eq. 5 state: no cold restart, no blindness —
        # but the routing-repair path still runs.
        assert fs["cold_restarts"] == 0
        assert fs["baseline_blind_window_s"] == 0.0
        assert fs["reroutes"] >= 2

    def test_healed_run_is_deterministic(self):
        r1, _ = _run(faults=_chaos_plan(), healing=SelfHealingConfig())
        r2, _ = _run(faults=_chaos_plan(), healing=SelfHealingConfig())
        assert r1.decisions == r2.decisions
        assert r1.fault_stats == r2.fault_stats
        assert r1.sink_frames == r2.sink_frames
        assert r1.degradation_events == r2.degradation_events


class TestDegradationEvents:
    def test_unhealed_crash_emits_structured_events(self):
        res, _ = _run(faults=_chaos_plan())
        events = res.degradation_events
        assert len(events) >= 1
        assert res.fault_stats["subtrees_orphaned"] == len(events)
        crashed = {5, 2}
        for ev in events:
            assert isinstance(ev, OrphanEvent)
            assert ev.dead_node_id in crashed
            assert isinstance(ev.orphaned_ids, tuple)
            assert ev.end_s >= ev.start_s
            assert ev.duration_s == ev.end_s - ev.start_s
        # The biggest casualty list names real sensor nodes.
        orphaned = {nid for ev in events for nid in ev.orphaned_ids}
        assert orphaned <= set(range(9))

    def test_dead_node_drops_counted(self):
        res, _ = _run(faults=_chaos_plan())
        assert res.fault_stats["frames_dropped_dead_node"] > 0

    def test_healthy_run_has_no_events_and_no_surface(self):
        res, _ = _run()
        assert res.degradation_events == ()
        assert res.fault_stats == {}


class TestHealingAloneExportsCounters:
    def test_healing_without_faults_exports_zeroed_resilience(self):
        res, _ = _run(healing=SelfHealingConfig())
        fs = res.fault_stats
        # The resilience surface is present (healing was armed) but the
        # uneventful run never needed it.
        assert fs["reroutes"] == 0
        assert fs["parents_declared_dead"] == 0
        assert fs["cold_restarts"] == 0
        assert fs["sentinel_demotions"] == 0
        # And no injection counters pretend faults ran.
        assert res.faults_injected == 0


class TestRollingCrashesBuilder:
    def test_schedule_and_reboots(self):
        plan = FaultPlan.rolling_crashes(
            [7, 3, 7], first_at_s=10.0, interval_s=5.0, downtime_s=20.0
        )
        crashes = plan.node_crashes
        assert [c.node_id for c in crashes] == [7, 3, 7]
        assert [c.at_s for c in crashes] == [10.0, 15.0, 20.0]
        assert all(c.reboot_after_s == 20.0 for c in crashes)
        assert plan.active

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"node_ids": []},
            {"node_ids": [1], "first_at_s": -1.0},
            {"node_ids": [1], "interval_s": 0.0},
            {"node_ids": [1], "downtime_s": 0.0},
        ],
    )
    def test_bad_arguments_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            FaultPlan.rolling_crashes(**kwargs)

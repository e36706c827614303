"""Telemetry equivalence: tracing must never change scenario results.

Two properties from ISSUE 7, asserted per runner:

- disabled (``telemetry=None``, the default) adds nothing — the run is
  the seed behaviour;
- enabled runs produce *identical* scenario outputs: no RNG draw, no
  frame, no schedule entry may depend on whether a tracer is attached.

Plus the end-to-end acceptance check: a traced network-with-faults run
exports a valid Chrome trace covering all six event categories.
"""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from repro.detection.cluster import TemporaryClusterConfig
from repro.detection.dutycycle import DutyCycleConfig
from repro.detection.node_detector import NodeDetectorConfig
from repro.detection.sid import SIDNodeConfig
from repro.faults.plan import BatteryDrain, BurstLoss, FaultPlan
from repro.network.selfheal import SelfHealingConfig
from repro.scenario.deployment import GridDeployment
from repro.scenario.presets import paper_scenario, paper_ship
from repro.scenario.runner import (
    run_dutycycled_scenario,
    run_network_scenario,
    run_offline_scenario,
)
from repro.scenario.streaming import run_streaming_scenario
from repro.scenario.synthesis import SynthesisConfig
from repro.sensors.imote2 import MoteConfig
from repro.telemetry import (
    CATEGORIES,
    ManualClock,
    Telemetry,
    read_trace_jsonl,
    to_chrome_trace,
)

SEED = 23


def _telemetry():
    return Telemetry.memory(clock=ManualClock(tick_s=0.001))


def _offline(telemetry=None):
    dep, ship, synth = paper_scenario(
        rows=3, columns=3, duration_s=120.0, seed=SEED
    )
    return run_offline_scenario(
        dep,
        [ship],
        detector_config=NodeDetectorConfig(m=2.0, af_threshold=0.5),
        synthesis_config=synth,
        seed=SEED,
        telemetry=telemetry,
    )


def _streaming(telemetry=None):
    dep, ship, synth = paper_scenario(
        rows=3, columns=3, duration_s=120.0, seed=SEED
    )
    det = NodeDetectorConfig(m=2.0, af_threshold=0.5)
    det = replace(
        det, preprocess=replace(det.preprocess, filter_kind="butter-causal")
    )
    return run_streaming_scenario(
        dep,
        [ship],
        detector_config=det,
        synthesis_config=synth,
        seed=SEED,
        chunk_s=17.3,
        telemetry=telemetry,
    )


def _chaos_plan():
    plan = FaultPlan.rolling_crashes(
        [5, 2], first_at_s=60.0, interval_s=30.0, downtime_s=60.0
    )
    return replace(
        plan,
        burst_loss=BurstLoss(
            start_s=20.0, duration_s=40.0, bad_loss_rate=0.6
        ),
        battery_drains=(
            BatteryDrain(node_id=3, at_s=10.0, factor=5000.0),
        ),
    )


def _network(telemetry=None):
    dep = GridDeployment(
        3, 3, seed=31, mote_config=MoteConfig(battery_capacity_j=30.0)
    )
    ship = paper_ship(dep, cross_time_s=80.0)
    cfg = SIDNodeConfig(
        detector=NodeDetectorConfig(m=2.0, af_threshold=0.4),
        cluster=TemporaryClusterConfig(min_rows=3),
    )
    return run_network_scenario(
        dep,
        [ship],
        sid_config=cfg,
        synthesis_config=SynthesisConfig(duration_s=160.0),
        faults=_chaos_plan(),
        healing=SelfHealingConfig(demote_battery_fraction=0.2),
        seed=9,
        telemetry=telemetry,
    )


def _dutycycled(telemetry=None):
    dep = GridDeployment(3, 3, seed=31)
    ship = paper_ship(dep, cross_time_s=60.0)
    return run_dutycycled_scenario(
        dep,
        [ship],
        detector_config=NodeDetectorConfig(m=2.0, af_threshold=0.5),
        duty_config=DutyCycleConfig(),
        synthesis_config=SynthesisConfig(duration_s=120.0),
        seed=SEED,
        telemetry=telemetry,
    )


@pytest.fixture(scope="module")
def network_traced():
    tel = _telemetry()
    return _network(telemetry=tel), tel


class TestOfflineEquivalence:
    def test_enabled_outputs_identical(self):
        plain = _offline()
        tel = _telemetry()
        traced = _offline(telemetry=tel)
        assert traced.reports_by_node == plain.reports_by_node
        assert traced.merged_by_node == plain.merged_by_node
        assert traced.cluster_event == plain.cluster_event
        assert traced.cluster_report == plain.cluster_report
        # The traced run did record something.
        stages = {e.name for e in tel.events}
        assert {"synthesis", "detection", "fusion"} <= stages


class TestStreamingEquivalence:
    def test_enabled_outputs_identical(self):
        plain = _streaming()
        tel = _telemetry()
        traced = _streaming(telemetry=tel)
        assert traced.reports_by_node == plain.reports_by_node
        assert traced.merged_by_node == plain.merged_by_node
        assert traced.cluster_event == plain.cluster_event
        stages = {e.name for e in tel.events}
        assert {
            "synthesize_chunk",
            "preprocess_chunk",
            "detect_chunk",
            "fusion",
        } <= stages


class TestDutyCycledEquivalence:
    def test_enabled_outputs_identical(self):
        plain = _dutycycled()
        tel = _telemetry()
        traced = _dutycycled(telemetry=tel)
        assert traced.reports_by_node == plain.reports_by_node
        assert traced.first_alarm_time == plain.first_alarm_time
        assert {e.name for e in tel.events} >= {"wakeup"}


class TestNetworkEquivalence:
    def test_enabled_outputs_identical(self, network_traced):
        plain = _network()
        traced, _ = network_traced
        assert traced.decisions == plain.decisions
        assert traced.mac_stats == plain.mac_stats
        assert traced.fault_stats == plain.fault_stats
        assert traced.sink_frames == plain.sink_frames
        assert traced.lost_to_partition == plain.lost_to_partition
        assert traced.resyncs_performed == plain.resyncs_performed
        assert traced.clock_rms_error_s == plain.clock_rms_error_s
        assert traced.degradation_events == plain.degradation_events

    def test_metrics_mirror_fault_and_mac_stats(self, network_traced):
        """ResilienceStats / fault_stats flow through MetricsRegistry."""
        result, tel = network_traced
        counters = tel.metrics.counter_values()
        for key, value in result.fault_stats.items():
            assert counters[f"fault_stats.{key}"] == float(value)
        for key, value in result.mac_stats.items():
            assert counters[f"mac.{key}"] == float(value)

    def test_windows_processed_counted(self, network_traced):
        _, tel = network_traced
        assert tel.metrics.counter_values()["windows_processed"] > 0


class TestChromeAcceptance:
    def test_network_fault_trace_covers_all_categories(self, tmp_path):
        """ISSUE 7 acceptance: valid Chrome JSON, >= 6 categories."""
        tel = Telemetry.to_jsonl(
            tmp_path / "run.jsonl", clock=ManualClock(tick_s=0.001)
        )
        _network(telemetry=tel)
        tel.close()
        events = read_trace_jsonl(tmp_path / "run.jsonl")
        categories = {e.category for e in events}
        assert categories >= set(CATEGORIES)
        assert len(categories) >= 6
        doc = to_chrome_trace(events)
        # Strict JSON: no NaN/Infinity may leak into the export.
        parsed = json.loads(json.dumps(doc, allow_nan=False))
        assert len(parsed["traceEvents"]) >= len(events)

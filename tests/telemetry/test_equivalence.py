"""Telemetry equivalence: tracing must never change scenario results.

Three properties, asserted per runner:

- disabled (``tracer=None``, the default) adds nothing — the run is
  the seed behaviour;
- enabled runs produce *identical* scenario outputs: no RNG draw, no
  frame, no schedule entry may depend on whether a tracer is attached;
- a trace read through a ``ManualClock`` is byte-reproducible: two
  traced runs of one scenario emit the same events.

The hand-built scenarios below pin one run per runner; the property at
the end checks all three on generated scenarios.  Plus the end-to-end
acceptance check: a traced network-with-faults run and a traced
duty-cycled run export valid Chrome traces that together cover all six
event categories.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import Optional

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.detection.cluster import TemporaryClusterConfig
from repro.detection.dutycycle import DutyCycleConfig
from repro.detection.node_detector import NodeDetectorConfig
from repro.detection.sid import SIDNodeConfig
from repro.faults.plan import BatteryDrain, BurstLoss, FaultPlan
from repro.network.selfheal import SelfHealingConfig
from repro.scenario.deployment import GridDeployment
from repro.scenario.digest import scenario_digest
from repro.scenario.presets import paper_deployment, paper_scenario, paper_ship
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
    InMemorySink,
    JsonlSink,
    ManualClock,
    Tracer,
    read_trace_jsonl,
    to_chrome_trace,
)

SEED = 23


def _traced():
    """A fresh in-memory sink and a ``ManualClock`` tracer writing to it."""
    sink = InMemorySink()
    return sink, Tracer([sink], clock=ManualClock(tick_s=0.001))


def _offline(tracer=None):
    dep, ship, synth = paper_scenario(
        rows=3, columns=3, duration_s=120.0, seed=SEED
    )
    return run_offline_scenario(
        dep,
        [ship],
        detector_config=NodeDetectorConfig(m=2.0, af_threshold=0.5),
        synthesis_config=synth,
        seed=SEED,
        tracer=tracer,
    )


def _streaming(tracer=None):
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
        tracer=tracer,
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


def _network(tracer=None):
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
        healing=SelfHealingConfig(),
        seed=9,
        tracer=tracer,
    )


def _dutycycled(tracer=None):
    dep = GridDeployment(3, 3, seed=31)
    ship = paper_ship(dep, cross_time_s=60.0)
    return run_dutycycled_scenario(
        dep,
        [ship],
        detector_config=NodeDetectorConfig(m=2.0, af_threshold=0.5),
        duty_config=DutyCycleConfig(),
        synthesis_config=SynthesisConfig(duration_s=120.0),
        seed=SEED,
        tracer=tracer,
    )


class TestOfflineEquivalence:
    def test_enabled_outputs_identical(self):
        plain = _offline()
        sink, tracer = _traced()
        traced = _offline(tracer=tracer)
        assert traced.reports_by_node == plain.reports_by_node
        assert traced.merged_by_node == plain.merged_by_node
        assert traced.cluster_event == plain.cluster_event
        assert traced.cluster_report == plain.cluster_report
        # The traced run did record something.
        stages = {e.name for e in sink.events}
        assert {"synthesis", "detection", "fusion"} <= stages


class TestStreamingEquivalence:
    def test_enabled_outputs_identical(self):
        plain = _streaming()
        sink, tracer = _traced()
        traced = _streaming(tracer=tracer)
        assert traced.reports_by_node == plain.reports_by_node
        assert traced.merged_by_node == plain.merged_by_node
        assert traced.cluster_event == plain.cluster_event
        stages = {e.name for e in sink.events}
        assert {
            "synthesize_chunk",
            "preprocess_chunk",
            "detect_chunk",
            "fusion",
        } <= stages


class TestDutyCycledEquivalence:
    def test_enabled_outputs_identical(self):
        plain = _dutycycled()
        sink, tracer = _traced()
        traced = _dutycycled(tracer=tracer)
        assert traced.reports_by_node == plain.reports_by_node
        assert traced.first_alarm_time == plain.first_alarm_time
        assert {e.name for e in sink.events} >= {"wakeup"}


class TestNetworkEquivalence:
    def test_enabled_outputs_identical(self):
        plain = _network()
        _, tracer = _traced()
        traced = _network(tracer=tracer)
        assert traced.decisions == plain.decisions
        assert traced.mac_stats == plain.mac_stats
        assert traced.fault_stats == plain.fault_stats
        assert traced.sink_frames == plain.sink_frames
        assert traced.lost_to_partition == plain.lost_to_partition
        assert traced.resyncs_performed == plain.resyncs_performed
        assert traced.clock_rms_error_s == plain.clock_rms_error_s
        assert traced.degradation_events == plain.degradation_events


class TestChromeAcceptance:
    def test_network_fault_trace_covers_all_categories(self, tmp_path):
        """Acceptance: valid Chrome JSON; the network-with-faults and
        duty-cycled traces together cover all six categories (only the
        duty-cycled runner emits ``dutycycle`` wake-ups)."""
        categories = set()
        for name, run in (("network", _network), ("dutycycled", _dutycycled)):
            path = tmp_path / f"{name}.jsonl"
            tracer = Tracer([JsonlSink(path)], clock=ManualClock(tick_s=0.001))
            run(tracer=tracer)
            tracer.close()
            events = read_trace_jsonl(path)
            categories |= {e.category for e in events}
            doc = to_chrome_trace(events)
            # Strict JSON: no NaN/Infinity may leak into the export.
            parsed = json.loads(json.dumps(doc, allow_nan=False))
            assert len(parsed["traceEvents"]) >= len(events)
        assert categories >= set(CATEGORIES)
        assert len(categories) >= 6


# ----------------------------------------------------------------------
# Generated scenarios
# ----------------------------------------------------------------------
#: Network first: hypothesis tries the simplest draw early, and a
#: network run is the one with a scheduler span.
RUNNERS = ("network", "offline", "streaming", "dutycycled")


@dataclass(frozen=True)
class GeneratedRun:
    runner: str
    rows: int
    columns: int
    duration_s: float
    cross_time_s: float
    seed: int
    faults: Optional[FaultPlan] = None
    healing: Optional[SelfHealingConfig] = None


@st.composite
def _generated_runs(draw) -> GeneratedRun:
    runner = draw(st.sampled_from(RUNNERS))
    rows, columns = draw(st.integers(2, 3)), draw(st.integers(2, 3))
    duration = draw(st.integers(40, 120))
    faults = healing = None
    if runner == "network":
        if draw(st.booleans()):
            nodes = st.integers(0, rows * columns - 1)
            faults = FaultPlan.rolling_crashes(
                draw(st.lists(nodes, min_size=1, max_size=3)),
                first_at_s=float(draw(st.integers(0, duration))),
                interval_s=float(draw(st.integers(5, 40))),
                downtime_s=float(draw(st.integers(5, 60))),
            )
        if draw(st.booleans()):
            healing = SelfHealingConfig()
    return GeneratedRun(
        runner,
        rows,
        columns,
        float(duration),
        float(draw(st.integers(1, duration))),
        draw(st.integers(0, 2**20)),
        faults,
        healing,
    )


def _generated_outcome(case: GeneratedRun, tracer=None):
    """Run ``case`` on a fresh deployment; return what must not move.

    That is the run's result (a network run's digest) and every node's
    battery, which no digest covers.
    """
    dep = paper_deployment(case.rows, case.columns, seed=case.seed)
    ships = [paper_ship(dep, cross_time_s=case.cross_time_s)]
    synth = SynthesisConfig(duration_s=case.duration_s)
    det = NodeDetectorConfig(m=2.0, af_threshold=0.4)
    common = dict(synthesis_config=synth, seed=case.seed, tracer=tracer)
    if case.runner == "network":
        outcome = scenario_digest(
            run_network_scenario(
                dep,
                ships,
                sid_config=SIDNodeConfig(
                    detector=det,
                    cluster=TemporaryClusterConfig(min_rows=2),
                ),
                faults=case.faults,
                healing=case.healing,
                **common,
            )
        )
    elif case.runner == "offline":
        outcome = run_offline_scenario(dep, ships, detector_config=det, **common)
    elif case.runner == "streaming":
        det = replace(
            det, preprocess=replace(det.preprocess, filter_kind="butter-causal")
        )
        outcome = run_streaming_scenario(
            dep, ships, detector_config=det, chunk_s=17.3, **common
        )
    else:
        result = run_dutycycled_scenario(
            dep, ships, detector_config=det, duty_config=DutyCycleConfig(), **common
        )
        # The controller compares by identity; its decisions show in the
        # reports and its wake intervals.
        outcome = (
            replace(result, controller=None),
            result.controller._wake_intervals,
        )
    batteries = [
        (node.mote.battery.remaining_j, node.mote.battery.breakdown())
        for node in dep
    ]
    return outcome, batteries


@given(case=_generated_runs())
@settings(max_examples=settings.default.max_examples // 20, deadline=None)
def test_generated_traces_are_inert_and_reproducible(case):
    """Traced ≡ untraced, and two ``ManualClock`` traces are equal."""
    plain = _generated_outcome(case)
    traces = []
    for _ in range(2):
        sink, tracer = _traced()
        assert _generated_outcome(case, tracer) == plain
        traces.append([event.to_json_dict() for event in sink.events])
    assert traces[0] == traces[1]

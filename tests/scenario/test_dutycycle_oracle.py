"""The duty-cycled runner's window walk against the sequential oracle.

``run_dutycycled_scenario`` steps the fleet one window group at a time
(one row at a time under zero wake-up latency), with battery drains,
depletion, billing and watermark demotion folded into the group walk.
Every case reruns the scenario with
:func:`tests.scenario.oracles.sequential_dutycycle` — the node-by-node,
window-by-window loop — substituted, and requires bit-identical
reports, first alarm, demotions, wake intervals, battery charges and
policy trace.
"""

from __future__ import annotations

import pytest

from repro.detection.dutycycle import DutyCycleConfig
from repro.detection.node_detector import NodeDetectorConfig, window_starts
from repro.errors import ConfigurationError
from repro.faults.plan import BatteryDrain, FaultPlan
from repro.scenario import runner
from repro.scenario.deployment import GridDeployment
from repro.scenario.presets import paper_ship
from repro.scenario.runner import run_dutycycled_scenario
from repro.scenario.synthesis import SynthesisConfig
from repro.sensors.imote2 import MoteConfig
from repro.telemetry import InMemorySink, ManualClock, Tracer
from repro.telemetry.events import CAT_PROFILING
from tests.scenario import oracles

DETECTOR = NodeDetectorConfig(m=2.0, af_threshold=0.5)
DURATION_S = 120.0
#: Seeds 5 and 47 raise zero-latency alarms that wake later rows of
#: their own window group, which whole-group batching gets wrong.
SEEDS = (5, 23, 31, 47)

DEMOTION = FaultPlan(battery_drains=(BatteryDrain(0, at_s=10.0, factor=5.0),))
DEPLETION = FaultPlan(
    battery_drains=(
        BatteryDrain(0, at_s=10.0, factor=50.0),
        BatteryDrain(4, at_s=30.0, factor=200.0),
        BatteryDrain(7, at_s=50.0, factor=20.0),
    )
)
CASES = {
    "demotion": (DutyCycleConfig(demote_battery_fraction=0.5), DEMOTION),
    # Demotions land during the crossing, between alarms of the same
    # window group, so the trace pins their order.
    "demotion_mid_crossing": (
        DutyCycleConfig(demote_battery_fraction=0.45),
        DEMOTION,
    ),
    "depletion": (DutyCycleConfig(demote_battery_fraction=0.5), DEPLETION),
    "full_rate_sentinels_faulted": (
        DutyCycleConfig(coarse_rate_hz=None, demote_battery_fraction=0.5),
        DEMOTION,
    ),
    "zero_latency": (DutyCycleConfig(wakeup_latency_s=0.0), None),
    "zero_latency_faulted": (
        DutyCycleConfig(wakeup_latency_s=0.0, demote_battery_fraction=0.5),
        DEPLETION,
    ),
    "zero_latency_full_rate": (
        DutyCycleConfig(wakeup_latency_s=0.0, coarse_rate_hz=None),
        None,
    ),
    "default": (DutyCycleConfig(), None),
}


def _run(monkeypatch, seed, duty, faults, oracle):
    dep = GridDeployment(
        3, 3, seed=seed, mote_config=MoteConfig(battery_capacity_j=0.2)
    )
    ship = paper_ship(dep, cross_time_s=DURATION_S / 2.0)
    trace = InMemorySink()
    with monkeypatch.context() as mp:
        if oracle:
            mp.setattr(
                runner, "_dutycycled_reports", oracles.sequential_dutycycle
            )
        result = run_dutycycled_scenario(
            dep,
            [ship],
            detector_config=DETECTOR,
            duty_config=duty,
            synthesis_config=SynthesisConfig(duration_s=DURATION_S),
            faults=faults,
            seed=seed,
            tracer=Tracer([trace], clock=ManualClock(tick_s=0.001)),
        )
    policy_trace = [
        (e.category, e.name, e.sim_time_s, e.node_id, e.fields)
        for e in trace.events
        if e.category != CAT_PROFILING
    ]
    charges = {n.node_id: n.mote.battery.remaining_j.hex() for n in dep}
    return result, charges, policy_trace


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("case", sorted(CASES))
def test_walk_matches_sequential_oracle(monkeypatch, case, seed):
    duty, faults = CASES[case]
    walk, walk_charges, walk_trace = _run(
        monkeypatch, seed, duty, faults, oracle=False
    )
    ref, ref_charges, ref_trace = _run(
        monkeypatch, seed, duty, faults, oracle=True
    )
    assert walk.reports_by_node == ref.reports_by_node
    assert walk.first_alarm_time == ref.first_alarm_time
    assert walk.controller.demotions() == ref.controller.demotions()
    assert walk.controller._wake_intervals == ref.controller._wake_intervals
    assert walk_charges == ref_charges
    assert walk_trace == ref_trace
    assert walk.n_reports > 0


def test_depletion_plan_depletes(monkeypatch):
    result, charges, _ = _run(
        monkeypatch, SEEDS[0], *CASES["depletion"], oracle=False
    )
    depleted = [nid for nid, hexed in charges.items() if float.fromhex(hexed) <= 0]
    assert len(depleted) >= 2
    assert result.sentinel_demotions > 0


@pytest.mark.parametrize("seed", [5, 47])
def test_zero_latency_alarm_at_window_start(monkeypatch, seed):
    # The zero-latency hazard: an onset exactly at its window's start
    # wakes the fleet from that very instant.
    result, _, _ = _run(monkeypatch, seed, *CASES["zero_latency"], oracle=False)
    starts = {
        start / DETECTOR.rate_hz
        for start in window_starts(DETECTOR, int(DURATION_S * DETECTOR.rate_hz))
    }
    onsets = {r.onset_time for rs in result.reports_by_node.values() for r in rs}
    assert onsets & starts


def test_unequal_start_times_rejected():
    dep = GridDeployment(3, 3, seed=5)
    # A resync leaves a residual clock offset, so node 0 stamps its
    # trace with a different start time than the rest of the fleet.
    dep.node(0).mote.synchronize_clock(0.0)
    with pytest.raises(ConfigurationError, match="start time"):
        run_dutycycled_scenario(
            dep,
            [],
            detector_config=DETECTOR,
            synthesis_config=SynthesisConfig(duration_s=20.0),
            seed=5,
        )

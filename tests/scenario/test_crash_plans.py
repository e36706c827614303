"""Generated crash plans against the network runner's window plan.

``run_network_scenario`` decides once, in ``runner._window_plan``,
which windows each node evaluates under a fault plan's crashes.  Three
consumers read that decision: the fleet precompute, the event-time
feed schedule and the sanitizer's billing intent.  Hypothesis draws
crash plans on a 3x3 grid and checks all three:

- the plan's ``live`` mask equals the per-node skip rule of
  :func:`tests.scenario.oracles.network_outcomes`, for ``now > 0`` too;
- the precompute's rows equal that oracle's rows;
- a sanitized unhealed and a sanitized healed run each pass the strict
  billing audit, which fails if a live window meets a dead node or a
  dead window is fed.

Crash, reboot and ``now`` instants are often placed exactly on a
window end time, where the plan's inclusive bounds and the event
loop's tie order must agree.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.detection.node_detector import NodeDetectorConfig
from repro.detection.sid import SIDNodeConfig
from repro.faults.plan import FaultPlan, NodeCrash
from repro.network.selfheal import SelfHealingConfig
from repro.sanitize import Sanitizer
from repro.scenario import runner
from repro.scenario.presets import paper_scenario
from repro.scenario.runner import FleetRecording, run_network_scenario
from repro.scenario.synthesis import synthesize_fleet_traces
from tests.scenario import oracles

SEED = 11
DURATION_S = 60.0
DETECTOR = NodeDetectorConfig(m=2.0, af_threshold=0.5)


def _scenario():
    return paper_scenario(rows=3, columns=3, duration_s=DURATION_S, seed=SEED)


@lru_cache(maxsize=1)
def _fleet():
    """The grid and its recording; window times depend only on the
    deployment's clocks, so every run of the scenario shares them."""
    dep, ship, synth = _scenario()
    traces = synthesize_fleet_traces(dep, [ship], synth, seed=SEED)
    return dep, FleetRecording.from_traces(dep, traces)


@lru_cache(maxsize=1)
def _t_end() -> list[list[float]]:
    _, rec = _fleet()
    return runner._window_plan(rec, DETECTOR, None, 0.0).t_end.tolist()


@st.composite
def _instant(draw, node: int) -> float:
    """A time in the run, often exactly one of ``node``'s window ends."""
    ends = _t_end()[node]
    if draw(st.booleans()):
        return ends[draw(st.integers(0, len(ends) - 1))]
    return draw(st.floats(-5.0, DURATION_S + 5.0, allow_nan=False))


@st.composite
def _crash(draw) -> NodeCrash:
    _, rec = _fleet()
    node = draw(st.integers(0, len(rec.node_ids) - 1))
    at_s = draw(_instant(node))
    reboot = draw(st.one_of(st.none(), _instant(node)))
    # A reboot instant at or before the crash becomes a short outage.
    reboot_after_s = (
        None if reboot is None else reboot - at_s if reboot > at_s else 1.0
    )
    return NodeCrash(rec.node_ids[node], at_s, reboot_after_s)


@st.composite
def _now(draw) -> float:
    return draw(_instant(draw(st.integers(0, 8))).filter(lambda t: t > 0.0))


def _live_windows(plan: runner.WindowPlan) -> dict[int, list[int]]:
    _, rec = _fleet()
    return {
        nid: np.flatnonzero(plan.live[i]).tolist()
        for i, nid in enumerate(rec.node_ids)
    }


@given(crashes=st.lists(_crash(), min_size=1, max_size=4), now=_now())
@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_plan_and_precompute_match_oracle(crashes, now):
    dep, rec = _fleet()
    faults = FaultPlan(node_crashes=tuple(crashes))
    plan = runner._window_plan(rec, DETECTOR, faults, now)
    want = oracles.network_outcomes(dep, rec, DETECTOR, faults, now)
    assert _live_windows(plan) == {
        nid: out.windows.tolist() for nid, out in want.items()
    }
    assert oracles.outcome_rows(
        runner._fleet_network_outcomes(dep, rec, DETECTOR, plan)
    ) == oracles.outcome_rows(want)


@given(crashes=st.lists(_crash(), min_size=1, max_size=4))
@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_sanitized_runs_bill_exactly_the_live_windows(crashes):
    faults = FaultPlan(node_crashes=tuple(crashes))
    for healing in (None, SelfHealingConfig()):
        dep, ship, synth = _scenario()
        sanitizer = Sanitizer()
        run_network_scenario(
            dep,
            [ship],
            sid_config=SIDNodeConfig(detector=DETECTOR),
            synthesis_config=synth,
            faults=faults,
            healing=healing,
            seed=SEED,
            sanitizer=sanitizer,
        )
        report = sanitizer.report()
        assert report.ok, report.format()


def test_window_times_are_the_runs_own():
    # The strategies place instants on the shared recording's window
    # ends; a run of the same scenario must see the same clocks.
    dep, ship, synth = _scenario()
    traces = synthesize_fleet_traces(dep, [ship], synth, seed=SEED + 1)
    rec = FleetRecording.from_traces(dep, traces)
    assert rec.t0s == _fleet()[1].t0s
    # And the scenario raises alarms, so crashes cut real detections.
    rows = oracles.network_outcomes(*_fleet(), DETECTOR, None, 0.0)
    assert any(out.reported.any() for out in rows.values())

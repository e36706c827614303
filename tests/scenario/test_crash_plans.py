"""Generated crash plans against the network runner's window plan.

``run_network_scenario`` decides once, in ``runner._window_plan``,
which windows each node evaluates under a fault plan's crashes.  Three
consumers read that decision: the fleet precompute, the event-time
feed schedule and the sanitizer's billing intent.  The fault injector,
which crashes and reboots the nodes, reads the same outages
(``FaultPlan.outages``).  Hypothesis draws crash plans on a 3x3 grid
and checks all four:

- the plan's ``live`` mask equals the per-node skip rule of
  :func:`tests.scenario.oracles.network_outcomes`, for ``now > 0`` too;
- the precompute's rows equal that oracle's rows;
- a sanitized unhealed and a sanitized healed run each pass the strict
  billing audit, which fails if a live window meets a dead node or a
  dead window is fed;
- in the same runs, a window is live exactly when no ``[node_crash,
  node_reboot]`` pair of the trace covers its end time.  Those plans
  often stack one node's entries: each starts inside the outage before
  it, or exactly at its reboot instant, and ends past it.

Crash, reboot and ``now`` instants are often placed exactly on a
window end time, where the plan's inclusive bounds and the event
loop's tie order must agree.
"""

from __future__ import annotations

import math
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
from repro.telemetry import InMemorySink, Tracer
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
def _after(draw, node: int, t: float) -> float:
    """A time past ``t``, often exactly one of ``node``'s window ends."""
    later = [end for end in _t_end()[node] if end > t]
    if later and draw(st.booleans()):
        return draw(st.sampled_from(later))
    return t + draw(st.floats(0.5, 15.0))


@st.composite
def _stacked(draw) -> list[NodeCrash]:
    """One node's crash entries, each starting inside the outage of
    those before it or exactly at its reboot instant, and ending past
    that outage."""
    _, rec = _fleet()
    node = draw(st.integers(0, len(rec.node_ids) - 1))
    nid = rec.node_ids[node]
    at_s = draw(_instant(node))
    lo = max(at_s, 0.0)  # where the run (now = 0) puts the crash
    crashes = [NodeCrash(nid, at_s, draw(_after(node, lo)) - lo)]
    end = lo + crashes[0].reboot_after_s  # the injector's reboot instant
    for _ in range(draw(st.integers(1, 3))):
        lo = end if draw(st.booleans()) else draw(st.floats(lo, end))
        crashes.append(NodeCrash(nid, lo, draw(_after(node, end)) - lo))
        end = max(end, lo + crashes[-1].reboot_after_s)
    return crashes


_crash_plans = st.one_of(
    st.lists(_crash(), min_size=1, max_size=4),
    st.tuples(_stacked(), st.lists(_crash(), max_size=2)).map(
        lambda drawn: drawn[0] + drawn[1]
    ),
).flatmap(st.permutations)


def _traced_outages(trace: InMemorySink) -> dict[int, list[list[float]]]:
    """Each node's ``[crash, reboot]`` instants from a run's trace
    (``inf`` when no reboot follows)."""
    down: dict[int, list[list[float]]] = {}
    for event in trace.events:
        if event.name == "node_crash":
            down.setdefault(event.node_id, []).append(
                [event.sim_time_s, math.inf]
            )
        elif event.name == "node_reboot":
            down[event.node_id][-1][1] = event.sim_time_s
    return down


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


@given(crashes=_crash_plans)
@settings(
    max_examples=settings.default.max_examples // 4,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_sanitized_runs_bill_exactly_the_live_windows(crashes):
    faults = FaultPlan(node_crashes=tuple(crashes))
    _, rec = _fleet()
    plan = runner._window_plan(rec, DETECTOR, faults, 0.0)
    for healing in (None, SelfHealingConfig()):
        dep, ship, synth = _scenario()
        sanitizer = Sanitizer()
        trace = InMemorySink()
        run_network_scenario(
            dep,
            [ship],
            sid_config=SIDNodeConfig(detector=DETECTOR),
            synthesis_config=synth,
            faults=faults,
            healing=healing,
            seed=SEED,
            tracer=Tracer([trace]),
            sanitizer=sanitizer,
        )
        report = sanitizer.report()
        assert report.ok, report.format()
        # A crash pops before a feed at its instant, a reboot after it.
        down = _traced_outages(trace)
        for i, nid in enumerate(rec.node_ids):
            dead = [
                k
                for k, t in enumerate(plan.t_end[i].tolist())
                if any(c <= t <= r for c, r in down.get(nid, ()))
            ]
            assert np.flatnonzero(~plan.live[i]).tolist() == dead, nid


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

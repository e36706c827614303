"""Quiet-tick elision equivalence: the event diet changes nothing.

``run_network_scenario`` coalesces provably-no-op window feeds into
batched catch-up events and drops timer ticks outside each node's
guarded head-activity intervals.  The whole point is that this is
*invisible*: every test here runs the same scenario with elision on
and off and demands bit-identical results — including the battery
billing that the catch-up path replays in batch.  The "off" arm forces
the one-event-per-window schedule by making the elision precondition
(``runner._billing_order_free``) fail.  The hand-built scenarios pin
one run each; the property at the end checks elision on ≡ off and
sanitized ≡ unsanitized on generated clean runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.scenario.runner as runner
from repro.detection.cluster import TemporaryClusterConfig
from repro.detection.node_detector import NodeDetectorConfig
from repro.detection.sid import SIDNodeConfig
from repro.faults.plan import FaultPlan
from repro.sanitize import Sanitizer
from repro.scenario.deployment import GridDeployment
from repro.scenario.digest import scenario_digest
from repro.scenario.presets import paper_deployment, paper_ship
from repro.scenario.runner import run_network_scenario
from repro.scenario.synthesis import SynthesisConfig
from repro.sensors.imote2 import MoteConfig


def _config():
    return SIDNodeConfig(
        detector=NodeDetectorConfig(m=2.0, af_threshold=0.4),
        cluster=TemporaryClusterConfig(min_rows=3),
    )


@pytest.fixture
def full_schedule(monkeypatch):
    """Run a scenario with quiet-tick elision forced off."""

    def run(**kwargs):
        with monkeypatch.context() as mp:
            mp.setattr(runner, "_billing_order_free", lambda *a: False)
            return _run(**kwargs)

    return run


def _run(with_ship=True, mote_config=None, **kwargs):
    dep = GridDeployment(3, 3, seed=31, mote_config=mote_config)
    ships = [paper_ship(dep, cross_time_s=80.0)] if with_ship else []
    return run_network_scenario(
        dep,
        ships,
        sid_config=_config(),
        synthesis_config=SynthesisConfig(duration_s=160.0),
        resync_interval_s=40.0,
        seed=9,
        **kwargs,
    )


class TestElisionEquivalence:
    def test_ship_scenario_bit_identical(self, full_schedule):
        fast = _run()
        full = full_schedule()
        assert fast.intrusion_detected
        assert scenario_digest(fast) == scenario_digest(full)

    def test_quiet_fleet_bit_identical(self, full_schedule):
        # No ship: the quiet-heavy case where elision collapses most of
        # the schedule.
        fast = _run(with_ship=False)
        full = full_schedule(with_ship=False)
        assert not fast.intrusion_detected
        assert scenario_digest(fast) == scenario_digest(full)

    def test_telemetry_counters_agree(self, full_schedule):
        # The batched catch-up path must bill each node's battery as
        # many times as the one-event-per-window path does.
        san_fast, san_full = Sanitizer(), Sanitizer()
        fast = _run(sanitizer=san_fast)
        full = full_schedule(sanitizer=san_full)
        assert scenario_digest(fast) == scenario_digest(full)
        report_fast, report_full = san_fast.report(), san_full.report()
        assert report_fast.ok, report_fast.format()
        assert report_full.ok, report_full.format()
        assert report_fast.billing == report_full.billing
        assert all(cats["cpu"] > 0 for cats in report_fast.billing.values())
        # The forced arm really ran the one-event-per-window schedule.
        assert report_fast.events_executed < report_full.events_executed


class TestElisionPreconditions:
    def test_tiny_battery_disables_elision_safely(self, full_schedule):
        # With almost no battery headroom the billing-order precondition
        # fails, elision turns itself off, and both arms take the full
        # schedule — results must still match exactly.
        mote = MoteConfig(battery_capacity_j=0.5)
        fast = _run(mote_config=mote)
        full = full_schedule(mote_config=mote)
        assert scenario_digest(fast) == scenario_digest(full)

    def test_fault_plan_disables_elision_safely(self, full_schedule):
        # An active fault plan forces the full path (crashes change
        # which windows are no-ops); equivalence is trivial but the
        # forced arm must not perturb the run.
        plan = FaultPlan.rolling_crashes(
            [5, 2], first_at_s=60.0, interval_s=30.0, downtime_s=60.0
        )
        fast = _run(faults=plan)
        full = full_schedule(faults=plan)
        assert scenario_digest(fast) == scenario_digest(full)


# ----------------------------------------------------------------------
# Generated clean runs
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CleanRun:
    rows: int
    columns: int
    duration_s: float
    cross_times_s: tuple[float, ...]
    resync_interval_s: Optional[float]
    seed: int


@st.composite
def _clean_runs(draw) -> CleanRun:
    duration = draw(st.integers(40, 120))
    crossings = st.integers(1, duration).map(float)
    return CleanRun(
        rows=draw(st.integers(2, 3)),
        columns=draw(st.integers(2, 3)),
        duration_s=float(duration),
        cross_times_s=tuple(draw(st.lists(crossings, max_size=2))),
        resync_interval_s=draw(st.sampled_from([None, 20.0, 120.0])),
        seed=draw(st.integers(0, 2**20)),
    )


def _clean_run(case: CleanRun, sanitizer=None):
    """Run ``case`` on a fresh deployment (batteries start full)."""
    dep = paper_deployment(case.rows, case.columns, seed=case.seed)
    # A second ship crosses the other way, as in the Fig. 11 trials.
    ships = [
        paper_ship(dep, alpha_deg=alpha, cross_time_s=t)
        for alpha, t in zip((70.0, 110.0), case.cross_times_s)
    ]
    return run_network_scenario(
        dep,
        ships,
        sid_config=SIDNodeConfig(
            detector=NodeDetectorConfig(m=2.0, af_threshold=0.4),
            cluster=TemporaryClusterConfig(min_rows=2),
        ),
        synthesis_config=SynthesisConfig(duration_s=case.duration_s),
        resync_interval_s=case.resync_interval_s,
        seed=case.seed,
        sanitizer=sanitizer,
    )


@given(case=_clean_runs())
@settings(max_examples=settings.default.max_examples // 3, deadline=None)
def test_generated_elision_and_sanitizer_are_invisible(case):
    """Elided ≡ full schedule, and a sanitized elided run ≡ both."""
    digest = scenario_digest(_clean_run(case))
    san_full = Sanitizer()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(runner, "_billing_order_free", lambda *a: False)
        assert scenario_digest(_clean_run(case, san_full)) == digest
    san_fast = Sanitizer()
    assert scenario_digest(_clean_run(case, san_fast)) == digest
    report_fast, report_full = san_fast.report(), san_full.report()
    assert report_fast.ok, report_fast.format()
    assert report_full.ok, report_full.format()
    assert report_fast.billing == report_full.billing
    assert report_fast.events_executed <= report_full.events_executed

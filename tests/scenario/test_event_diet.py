"""Quiet-tick elision equivalence: the event diet changes nothing.

``run_network_scenario`` coalesces provably-no-op window feeds into
batched catch-up events and drops timer ticks outside each node's
guarded head-activity intervals.  The whole point is that this is
*invisible*: every test here runs the same scenario with elision on
and off and demands bit-identical results — including the battery
billing that the catch-up path replays in batch.  The "off" arm forces
the one-event-per-window schedule by making the elision precondition
(``runner._billing_order_free``) fail.
"""

from __future__ import annotations

import pytest

import repro.scenario.runner as runner
from repro.detection.cluster import TemporaryClusterConfig
from repro.detection.node_detector import NodeDetectorConfig
from repro.detection.sid import SIDNodeConfig
from repro.faults.plan import FaultPlan
from repro.network.nodeproc import RetransmitPolicy
from repro.sanitize import Sanitizer
from repro.scenario.deployment import GridDeployment
from repro.scenario.digest import scenario_digest
from repro.scenario.presets import paper_ship
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

    def test_forced_retransmit_bit_identical(self, full_schedule):
        # A retransmit policy widens the elision guard (staleness);
        # both arms must still agree.
        policy = RetransmitPolicy(
            max_attempts=3, base_backoff_s=0.5, staleness_s=30.0
        )
        fast = _run(retransmit=policy)
        full = full_schedule(retransmit=policy)
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

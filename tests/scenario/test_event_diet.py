"""Event-diet equivalence: the diet changes nothing.

``run_network_scenario`` coalesces quiet window feeds into batched
catch-up events and queues a node's cluster-evaluation ticks only while
it heads an open cluster.  The whole point is that this is *invisible*:
every test here runs the same scenario on the diet and on the full
schedule (:func:`tests.scenario.oracles.full_schedule`: every live
window fed, every grid tick queued up front) and demands bit-identical
results — including the battery billing that the catch-up path replays
in batch.  The hand-built scenarios pin one run each; the property at
the end checks diet ≡ full schedule and sanitized ≡ unsanitized on
generated clean and crash/reboot runs, unhealed and healed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.detection.cluster import TemporaryClusterConfig
from repro.detection.node_detector import NodeDetectorConfig
from repro.detection.sid import SIDNode, SIDNodeConfig
from repro.detection.sink import Sink
from repro.faults.injector import FaultInjector
from repro.faults.plan import BatteryDrain, FaultPlan, NodeCrash
from repro.network.nodeproc import SensorNetwork
from repro.network.selfheal import SelfHealingConfig
from repro.sanitize import Sanitizer
from repro.scenario.deployment import GridDeployment
from repro.scenario.digest import scenario_digest
from repro.scenario.presets import paper_deployment, paper_ship
from repro.scenario.runner import run_network_scenario
from repro.scenario.synthesis import SynthesisConfig
from repro.sensors.imote2 import MoteConfig
from repro.types import Position
from tests.scenario import oracles


def _config():
    return SIDNodeConfig(
        detector=NodeDetectorConfig(m=2.0, af_threshold=0.4),
        cluster=TemporaryClusterConfig(min_rows=3),
    )


@pytest.fixture
def full_schedule():
    """Run a scenario on the full schedule."""

    def run(**kwargs):
        with oracles.full_schedule():
            return _run(**kwargs)

    return run


def _run(with_ship=True, mote_config=None, dep=None, **kwargs):
    if dep is None:
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
        # A battery drain changes the per-window billing amount mid-run,
        # so a plan with one keeps every feed (a catch-up after the
        # drain would bill earlier windows at the drained rate); its
        # ticks still go on demand.  Ticks never bill, so every battery
        # ends bit-equal to the full schedule's.
        plan = replace(
            FaultPlan.rolling_crashes(
                [5, 2], first_at_s=60.0, interval_s=30.0, downtime_s=60.0
            ),
            battery_drains=(BatteryDrain(node_id=4, at_s=50.0, factor=3.0),),
        )
        dep_fast = GridDeployment(3, 3, seed=31)
        dep_full = GridDeployment(3, 3, seed=31)
        fast = _run(faults=plan, dep=dep_fast)
        full = full_schedule(faults=plan, dep=dep_full)
        assert scenario_digest(fast) == scenario_digest(full)
        assert [n.mote.battery.remaining_j for n in dep_fast] == [
            n.mote.battery.remaining_j for n in dep_full
        ]

    def test_crash_plan_elides_exactly(self, full_schedule):
        # Crash/reboot-only plans elide quiet feeds like clean runs; the
        # outages split each node's quiet runs, and the catch-ups must
        # bill exactly the live windows.
        plan = FaultPlan.rolling_crashes(
            [5, 2], first_at_s=60.0, interval_s=30.0, downtime_s=60.0
        )
        san_fast, san_full = Sanitizer(), Sanitizer()
        fast = _run(faults=plan, sanitizer=san_fast)
        full = full_schedule(faults=plan, sanitizer=san_full)
        assert fast.fault_stats["node_crashes"] == 2
        assert scenario_digest(fast) == scenario_digest(full)
        report_fast, report_full = san_fast.report(), san_full.report()
        assert report_fast.ok, report_fast.format()
        assert report_fast.billing == report_full.billing
        assert report_fast.events_executed < report_full.events_executed / 2


# ----------------------------------------------------------------------
# Generated runs
# ----------------------------------------------------------------------
_HEALING = {
    "off": None,
    "persisted": SelfHealingConfig(persist_baseline=True),
    "cold": SelfHealingConfig(persist_baseline=False),
}


@dataclass(frozen=True)
class GeneratedRun:
    rows: int
    columns: int
    duration_s: float
    cross_times_s: tuple[float, ...]
    resync_interval_s: Optional[float]
    seed: int
    crashes: tuple[NodeCrash, ...]
    healing: str
    #: None keeps the paper's cluster timers (30 s / 120 s, a 180 s
    #: membership); a value shrinks them to 2 s / 4 s with this
    #: membership TTL, so memberships expire mid-run.
    membership_ttl_s: Optional[float] = None
    #: A hop that does not divide the 2 s window puts ticks between
    #: window ends.
    hop_s: Optional[float] = None


@st.composite
def _stacked(draw, node_id: int, duration: int) -> list[NodeCrash]:
    """One node's crash entries, each starting inside the outage of
    those before it or exactly at its reboot instant, and ending past
    that outage."""
    at_s = float(draw(st.integers(0, duration)))
    crashes = [NodeCrash(node_id, at_s, float(draw(st.integers(1, 30))))]
    end = at_s + crashes[0].reboot_after_s
    for _ in range(draw(st.integers(1, 2))):
        lo = end if draw(st.booleans()) else draw(st.floats(at_s, end))
        crashes.append(
            NodeCrash(node_id, lo, end - lo + draw(st.floats(0.5, 20.0)))
        )
        end = lo + crashes[-1].reboot_after_s
    return crashes


@st.composite
def _crash_plans(draw, n_nodes: int, duration: int) -> tuple[NodeCrash, ...]:
    """No crash, a rolling wave, or one node's stacked entries."""
    kind = draw(st.sampled_from(["none", "rolling", "stacked"]))
    if kind == "none":
        return ()
    nodes = st.integers(0, n_nodes - 1)
    if kind == "rolling":
        return FaultPlan.rolling_crashes(
            draw(st.lists(nodes, min_size=1, max_size=3)),
            first_at_s=float(draw(st.integers(0, duration))),
            interval_s=float(draw(st.integers(5, 40))),
            downtime_s=float(draw(st.integers(1, 60))),
        ).node_crashes
    return tuple(draw(_stacked(draw(nodes), duration)))


@st.composite
def _generated_runs(draw) -> GeneratedRun:
    rows, columns = draw(st.integers(2, 3)), draw(st.integers(2, 3))
    duration = draw(st.integers(40, 120))
    crossings = st.integers(1, duration).map(float)
    return GeneratedRun(
        rows=rows,
        columns=columns,
        duration_s=float(duration),
        cross_times_s=tuple(draw(st.lists(crossings, max_size=2))),
        resync_interval_s=draw(st.sampled_from([None, 20.0, 120.0])),
        seed=draw(st.integers(0, 2**20)),
        crashes=draw(_crash_plans(rows * columns, duration)),
        healing=draw(st.sampled_from(sorted(_HEALING))),
        membership_ttl_s=draw(st.one_of(st.none(), st.floats(4.5, 40.0))),
        hop_s=draw(st.sampled_from([None, 0.7])),
    )


def _generated_run(case: GeneratedRun, sanitizer=None):
    """Run ``case`` on a fresh deployment (batteries start full).

    Returns the run's ``scenario_digest`` and every node's battery
    afterwards (charge left and spend by category), which the digest
    does not cover.
    """
    dep = paper_deployment(case.rows, case.columns, seed=case.seed)
    # A second ship crosses the other way, as in the Fig. 11 trials.
    ships = [
        paper_ship(dep, alpha_deg=alpha, cross_time_s=t)
        for alpha, t in zip((70.0, 110.0), case.cross_times_s)
    ]
    # Drawn node indices name the deployment's node ids.
    ids = [node.node_id for node in dep]
    crashes = tuple(replace(c, node_id=ids[c.node_id]) for c in case.crashes)
    cfg = SIDNodeConfig(
        detector=NodeDetectorConfig(m=2.0, af_threshold=0.4, hop_s=case.hop_s),
        cluster=TemporaryClusterConfig(min_rows=2),
    )
    if case.membership_ttl_s is not None:
        cfg = replace(
            cfg,
            cluster=replace(
                cfg.cluster, quiet_timeout_s=2.0, collection_timeout_s=4.0
            ),
            membership_ttl_s=case.membership_ttl_s,
        )
    result = run_network_scenario(
        dep,
        ships,
        sid_config=cfg,
        synthesis_config=SynthesisConfig(duration_s=case.duration_s),
        faults=FaultPlan(node_crashes=crashes) if crashes else None,
        healing=_HEALING[case.healing],
        resync_interval_s=case.resync_interval_s,
        seed=case.seed,
        sanitizer=sanitizer,
    )
    batteries = [
        (node.mote.battery.remaining_j, node.mote.battery.breakdown())
        for node in dep
    ]
    return scenario_digest(result), batteries


@given(case=_generated_runs())
@example(
    # An orphan episode and a blind window still open when the last
    # event fires: both must close at the full schedule's end time.
    case=GeneratedRun(
        rows=2,
        columns=2,
        duration_s=40.0,
        cross_times_s=(),
        resync_interval_s=None,
        seed=0,
        crashes=(NodeCrash(node_id=0, at_s=0.0, reboot_after_s=36.0),),
        healing="cold",
    )
)
@example(
    # A membership expires inside a quiet run whose next window
    # reports: the catch-up must run that run's last timer check.
    case=GeneratedRun(
        rows=3,
        columns=2,
        duration_s=105.0,
        cross_times_s=(),
        resync_interval_s=None,
        seed=0,
        crashes=(),
        healing="off",
        membership_ttl_s=4.5,
    )
)
@example(
    # A membership expires at a skipped tick between two window ends:
    # the next report's replay must run that tick's check first.
    case=GeneratedRun(
        rows=3,
        columns=2,
        duration_s=115.0,
        cross_times_s=(42.0, 79.0),
        resync_interval_s=20.0,
        seed=263,
        crashes=(),
        healing="cold",
        membership_ttl_s=23.269645905946756,
        hop_s=0.7,
    )
)
@settings(
    max_examples=settings.default.max_examples // 3,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_generated_elision_and_sanitizer_are_invisible(case):
    """The diet ≡ the full schedule, and a sanitized run ≡ both, down to
    every node's battery."""
    outcome = _generated_run(case)
    san_full = Sanitizer()
    with oracles.full_schedule():
        assert _generated_run(case, san_full) == outcome
    san_fast = Sanitizer()
    assert _generated_run(case, san_fast) == outcome
    report_fast, report_full = san_fast.report(), san_full.report()
    assert report_fast.ok, report_fast.format()
    assert report_full.ok, report_full.format()
    assert report_fast.billing == report_full.billing
    assert report_fast.events_executed <= report_full.events_executed


def test_rearmed_tick_at_a_reboot_instant_is_no_race():
    # Node 1 crashes at 29 s and reboots at 30 s; its tick train,
    # created dormant at install time and re-armed during the run,
    # fires at the reboot instant.  Re-arming must keep the train's
    # install-time provenance: had it told the sanitizer's probe, tick
    # and reboot would look like runtime events of unrelated parents
    # touching one node at one timestamp, an order race.  (The runner
    # queues no tick at a reboot instant, where the node is still down;
    # the sanitizer's view of a re-armed train must not rest on that.)
    positions = {i: Position(25.0 * i, 0.0) for i in range(3)}
    net = SensorNetwork(
        positions, sink_id=3, sink_position=Position(75.0, 0.0), sink=Sink()
    )
    sanitizer = Sanitizer()
    sanitizer.attach_network(net)
    FaultInjector(
        FaultPlan(node_crashes=(NodeCrash(1, at_s=29.0, reboot_after_s=1.0),))
    ).install(net)
    proc = net.add_node(SIDNode(1, positions[1]))
    sanitizer.track_node(proc)
    ticks = net.sim.schedule_train(())
    net.sim.schedule_at(10.0, net.sim.rearm, ticks, [(30.0, proc.tick, ())])
    net.sim.run()
    report = sanitizer.report()
    assert report.ok, report.format()
    # The crash, the re-arm, the tick and the reboot.
    assert report.events_executed == 4

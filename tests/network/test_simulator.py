"""Tests for the discrete-event simulation core."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import repro.network.nodeproc as nodeproc
from repro.detection.cluster import TemporaryClusterConfig
from repro.detection.node_detector import NodeDetectorConfig
from repro.detection.sid import SIDNodeConfig
from repro.errors import SimulationError
from repro.faults.plan import FaultPlan
from repro.network.selfheal import SelfHealingConfig
from repro.network.simulator import Simulator
from repro.scenario.deployment import GridDeployment
from repro.scenario.digest import scenario_digest
from repro.scenario.presets import paper_ship
from repro.scenario.runner import run_network_scenario
from repro.scenario.synthesis import SynthesisConfig
from tests.network.oracles import ReferenceSimulator
from tests.scenario.oracles import full_schedule


def test_events_run_in_time_order():
    sim = Simulator()
    log = []
    sim.schedule(2.0, log.append, "b")
    sim.schedule(1.0, log.append, "a")
    sim.schedule(3.0, log.append, "c")
    sim.run()
    assert log == ["a", "b", "c"]


def test_ties_break_by_scheduling_order():
    sim = Simulator()
    log = []
    sim.schedule(1.0, log.append, "first")
    sim.schedule(1.0, log.append, "second")
    sim.run()
    assert log == ["first", "second"]


def test_now_advances_with_events():
    sim = Simulator()
    seen = []
    sim.schedule(5.0, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [5.0]


def test_run_until_stops_clock():
    sim = Simulator()
    log = []
    sim.schedule(1.0, log.append, 1)
    sim.schedule(10.0, log.append, 2)
    sim.run(until=5.0)
    assert log == [1]
    assert sim.now == 5.0
    assert sim.n_pending == 1


def test_events_can_schedule_events():
    sim = Simulator()
    log = []

    def chain(n):
        log.append(n)
        if n < 3:
            sim.schedule(1.0, chain, n + 1)

    sim.schedule(0.0, chain, 0)
    sim.run()
    assert log == [0, 1, 2, 3]
    assert sim.now == 3.0


def test_schedule_in_past_rejected():
    sim = Simulator()
    sim.schedule(5.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at(1.0, lambda: None)


def test_negative_delay_rejected():
    with pytest.raises(SimulationError):
        Simulator().schedule(-1.0, lambda: None)


def test_runaway_guard():
    sim = Simulator()

    def forever():
        sim.schedule(0.0, forever)

    sim.schedule(0.0, forever)
    with pytest.raises(SimulationError):
        sim.run(max_events=100)


def test_reentrancy_rejected():
    sim = Simulator()

    def reenter():
        sim.run()

    sim.schedule(0.0, reenter)
    with pytest.raises(SimulationError):
        sim.run()


def test_processed_counter():
    sim = Simulator()
    for i in range(5):
        sim.schedule(float(i), lambda: None)
    sim.run()
    assert sim.n_processed == 5


def test_run_until_advances_to_until_when_idle():
    sim = Simulator()
    sim.run(until=42.0)
    assert sim.now == 42.0


class TestHeapHygiene:
    def test_peak_queue_depth(self):
        sim = Simulator()
        for i in range(7):
            sim.schedule(float(i + 1), lambda: None)
        sim.run()
        assert sim.peak_queue_depth == 7
        assert sim.stats()["events_executed"] == 7


class TestSchedulePeriodic:
    def test_fires_on_accumulated_grid(self):
        sim = Simulator()
        times = []
        sim.schedule_periodic(
            0.5, lambda: times.append(sim.now), first=1.0, until=3.0
        )
        sim.run()
        assert times == [1.0, 1.5, 2.0, 2.5]

    def test_until_is_exclusive(self):
        sim = Simulator()
        times = []
        sim.schedule_periodic(
            1.0, lambda: times.append(sim.now), first=1.0, until=3.0
        )
        sim.run()
        assert times == [1.0, 2.0]

    def test_empty_train_is_inert(self):
        sim = Simulator()
        ev = sim.schedule_periodic(
            1.0, lambda: None, first=5.0, until=5.0
        )
        assert sim.n_pending == 0 and not ev.queued
        assert sim.run() == 0

    def test_default_first_is_now_plus_interval(self):
        sim = Simulator()
        times = []
        sim.schedule_periodic(
            2.0, lambda: times.append(sim.now), until=7.0
        )
        sim.run()
        assert times == [2.0, 4.0, 6.0]

    def test_keeps_seq_against_later_events(self):
        # The train keeps its creation seq: a one-shot scheduled later
        # at a shared time fires after the train's member, exactly as
        # if the whole train had been pre-scheduled up front.
        sim = Simulator()
        log = []
        sim.schedule_periodic(
            1.0, lambda: log.append("train"), first=1.0, until=3.5
        )
        sim.schedule_at(2.0, log.append, "one-shot")
        sim.run()
        assert log == ["train", "train", "one-shot", "train"]

    def test_nonpositive_interval_rejected(self):
        with pytest.raises(SimulationError):
            Simulator().schedule_periodic(0.0, lambda: None)

    def test_first_in_past_rejected(self):
        sim = Simulator()
        sim.schedule(5.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_periodic(1.0, lambda: None, first=1.0)


class TestScheduleTrain:
    def test_fires_items_in_order(self):
        sim = Simulator()
        log = []
        sim.schedule_train(
            [(1.0, log.append, ("a",)), (1.0, log.append, ("b",)),
             (2.5, log.append, ("c",))]
        )
        sim.run()
        assert log == ["a", "b", "c"]
        assert sim.n_processed == 3

    def test_keeps_seq_against_later_events(self):
        # Like a periodic, the train keeps its creation seq: a one-shot
        # scheduled after it at a shared time fires after the train's
        # items at that time, including one queued at run time.
        sim = Simulator()
        log = []
        sim.schedule_train(
            [(1.0, log.append, ("t1",)), (2.0, log.append, ("t2",)),
             (2.0, log.append, ("t3",))]
        )
        sim.schedule_at(2.0, log.append, "one-shot")
        sim.run()
        assert log == ["t1", "t2", "t3", "one-shot"]

    def test_backwards_time_raises(self):
        sim = Simulator()
        sim.schedule_train(
            [(2.0, lambda: None, ()), (1.0, lambda: None, ())]
        )
        with pytest.raises(SimulationError):
            sim.run()

    def test_first_time_in_past_raises(self):
        sim = Simulator()
        sim.schedule(5.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_train([(1.0, lambda: None, ())])

    def test_empty_train_is_inert(self):
        sim = Simulator()
        ev = sim.schedule_train([])
        assert sim.n_pending == 0 and not ev.queued
        assert sim.run() == 0

    def test_rearm_fires_in_the_dormant_trains_slot(self):
        # An empty train is dormant but holds its creation seq: items
        # re-armed later fire before a one-shot created after the train
        # at a shared time, as the up-front train's items would.
        sim = Simulator()
        log = []
        train = sim.schedule_train([])
        sim.schedule_at(2.0, log.append, "one-shot")
        items = [(2.0, log.append, ("t1",)), (3.0, log.append, ("t2",))]
        sim.schedule_at(1.0, sim.rearm, train, items)
        sim.run()
        assert log == ["t1", "one-shot", "t2"]
        # Drained again; re-armed from outside a run, still in its slot.
        sim.schedule_at(5.0, log.append, "later")
        sim.rearm(train, [(5.0, log.append, ("t3",))])
        assert train.queued
        sim.run()
        assert log[-2:] == ["t3", "later"]
        assert not train.queued

    def test_rearm_with_no_items_stays_dormant(self):
        sim = Simulator()
        train = sim.schedule_train([])
        sim.rearm(train, [])
        assert not train.queued and sim.n_pending == 0
        sim.rearm(train, [(1.0, lambda: None, ())])
        assert sim.run() == 1

    def test_rearm_rejects_everything_but_a_dormant_train(self):
        sim = Simulator()
        item = [(1.0, lambda: None, ())]
        for event in (
            sim.schedule_train(item),
            sim.schedule_at(1.0, lambda: None),
            sim.schedule_periodic(1.0, lambda: None, until=3.0),
        ):
            with pytest.raises(SimulationError):
                sim.rearm(event, item)
        sim.run()
        # Before now, like schedule_train's first item.
        with pytest.raises(SimulationError):
            sim.rearm(sim.schedule_train([]), item)
        # From its own callback a train's items are not yet spent.
        own = []
        own.append(
            sim.schedule_train([(5.0, lambda: sim.rearm(own[0], []), ())])
        )
        with pytest.raises(SimulationError):
            sim.run()

    def test_peak_queue_depth_counts_one_entry_per_train(self):
        sim = Simulator()
        for j in range(3):
            sim.schedule_train(
                [(k + 0.1 * j, lambda: None, ()) for k in range(100)]
            )
        sim.run()
        assert sim.peak_queue_depth == 3
        assert sim.n_processed == 300

    def test_items_are_pulled_one_firing_at_a_time(self):
        # A generator computes each item just before it is queued.
        sim = Simulator()
        pulled = []

        def items():
            for k in range(3):
                pulled.append(k)
                yield float(k), lambda: None, ()

        sim.schedule_train(items())
        assert pulled == [0]
        sim.run(until=0.5)
        assert pulled == [0, 1]
        sim.run()
        assert pulled == [0, 1, 2]


#: Coarse time grid of the generated schedules: ties are common.
_grid = st.integers(0, 40).map(lambda k: 0.5 * k)


@st.composite
def _schedule_ops(draw) -> list[tuple]:
    """Install ops for one mixed schedule, in install (seq) order.

    Trains hold 0-50 items with non-decreasing times (repeats
    included), and the loop re-arms a train after each of its items.  A
    train may also run dry after its k-th item (k = -1: it starts
    dormant) and be re-armed with the rest at a drawn time in
    ``[t_k, t_{k+1})``.
    """
    n_trains = draw(st.integers(0, 6))
    ops: list[tuple] = []
    for j in range(n_trains):
        times = sorted(draw(st.lists(_grid, max_size=50)))
        # The rest can be re-armed only strictly before its first time.
        before = [0.0] + times
        splits = [k for k in range(-1, len(times) - 1) if before[k + 1] < times[k + 1]]
        drains = sorted(draw(st.sets(st.sampled_from(splits)))) if splits else []
        rearms = [
            (k, before[k + 1] + f * (times[k + 1] - before[k + 1]))
            for k, f in zip(
                drains,
                draw(
                    st.lists(
                        st.sampled_from([0.0, 0.5, 0.99]),
                        min_size=len(drains),
                        max_size=len(drains),
                    )
                ),
            )
        ]
        ops.append(("train", j, times, rearms))
    ops += [("one-shot", t) for t in draw(st.lists(_grid, max_size=30))]
    ops += [
        ("periodic", first, interval, n)
        for first, interval, n in draw(
            st.lists(
                st.tuples(_grid, st.integers(1, 4), st.integers(1, 10)),
                max_size=4,
            )
        )
    ]
    ops += [
        ("spawn", t, delay, depth)
        for t, delay, depth in draw(
            st.lists(
                st.tuples(_grid, st.integers(0, 2), st.integers(0, 3)),
                max_size=10,
            )
        )
    ]
    return draw(st.permutations(ops))


def _replay(sim_cls, ops, on_demand=False) -> list[tuple[float, str]]:
    """Install ``ops`` on a fresh ``sim_cls`` and run; the firing log.

    ``on_demand`` splits each train at its drain points and re-arms
    each rest from a one-shot at its drawn time; otherwise every train
    is scheduled in full.
    """
    sim = sim_cls()
    log: list[tuple[float, str]] = []
    trains: dict[int, object] = {}

    def fire(label: str) -> None:
        log.append((sim.now, label))

    def spawn(label: str, delay: float, depth: int) -> None:
        fire(label)
        if depth:
            sim.schedule(delay, spawn, label + "+", delay, depth - 1)

    def rearm(j: int, rest: list) -> None:
        sim.rearm(trains[j], rest)

    for n, op in enumerate(ops):
        kind = op[0]
        if kind == "train":
            _, j, times, rearms = op
            items = [(t, fire, (f"t{j}.{k}",)) for k, t in enumerate(times)]
            if not on_demand:
                trains[j] = sim.schedule_train(items)
                continue
            cuts = [k + 1 for k, _ in rearms]
            parts = [
                items[a:b] for a, b in zip([0] + cuts, cuts + [len(items)])
            ]
            trains[j] = sim.schedule_train(parts[0])
            for (_, at), rest in zip(rearms, parts[1:]):
                sim.schedule_at(at, rearm, j, rest)
        elif kind == "one-shot":
            sim.schedule_at(op[1], fire, f"o{n}")
        elif kind == "periodic":
            _, first, interval, count = op
            sim.schedule_periodic(
                0.5 * interval,
                fire,
                f"p{n}",
                first=first,
                until=first + 0.5 * interval * count,
            )
        else:
            _, t, delay, depth = op
            sim.schedule_at(t, spawn, f"s{n}", 0.5 * delay, depth)
    sim.run()
    return log


@given(ops=_schedule_ops())
@example(
    # Starts dormant, is re-armed at 0 s, re-arms itself through three
    # items, runs dry and is re-armed at 1.5 s; one-shots tie with it.
    ops=[
        ("train", 0, [0.5, 1.0, 1.0, 2.0], [(-1, 0.0), (2, 1.5)]),
        ("one-shot", 1.0),
        ("one-shot", 2.0),
    ]
)
def test_trains_fire_as_if_scheduled_up_front(ops):
    # The oracle schedules every train item up front with its own seq;
    # one re-arming queue entry per train must replay the same order,
    # whether it runs in full or runs dry and is re-armed on demand.
    want = _replay(ReferenceSimulator, ops)
    assert _replay(Simulator, ops) == want
    assert _replay(Simulator, ops, on_demand=True) == want


class TestReferenceSimulatorParity:
    """The tuple heap replays the pre-rewrite scheduler's order exactly."""

    @staticmethod
    def _mixed_workload(sim_cls) -> list[tuple[float, str]]:
        """~2k seeded one-shot/spawn/periodic events; the firing log.

        Times sit on a 0.5 s grid so same-time ties are common and the
        ``(time, seq)`` tie-break is exercised throughout.
        """
        sim = sim_cls()
        rng = np.random.default_rng(2024)
        log: list[tuple[float, str]] = []

        def fire(label: str) -> None:
            log.append((sim.now, label))

        def spawn(label: str, delay: float, depth: int) -> None:
            fire(label)
            if depth:
                sim.schedule(delay, spawn, label + "+", delay, depth - 1)

        def grid_time() -> float:
            return 0.5 * int(rng.integers(0, 200))

        for k in range(20):
            interval = 0.5 * int(rng.integers(1, 6))
            first = grid_time() / 10.0
            sim.schedule_periodic(
                interval, fire, f"p{k}", first=first, until=first + 30 * interval
            )
        for k in range(1000):
            sim.schedule_at(grid_time(), fire, f"e{k}")
        for k in range(100):
            delay = 0.5 * int(rng.integers(0, 3))
            sim.schedule_at(grid_time(), spawn, f"s{k}", delay, 3)
        sim.run()
        return log

    def test_mixed_workload_same_order(self):
        log = self._mixed_workload(Simulator)
        assert log == self._mixed_workload(ReferenceSimulator)
        assert len(log) > 1500
        # Ties really occurred, so the order check covers the seq rule.
        assert len({t for t, _ in log}) < len(log) // 2

    def test_network_scenario_digest_matches(self, monkeypatch):
        # Clean and unhealed under rolling crashes (precomputed
        # outcomes, elided feeds), healed with a persisted baseline and
        # healed with cold restarts (raw windows fed at event time); all
        # tick on demand.  The reference arm runs the full schedule.
        crashes = FaultPlan.rolling_crashes(
            [4, 4], first_at_s=15.0, interval_s=20.0, downtime_s=10.0
        )
        arms = [
            (None, None),
            (crashes, None),
            (crashes, SelfHealingConfig(persist_baseline=True)),
            (crashes, SelfHealingConfig(persist_baseline=False)),
        ]

        def run(faults, healing):
            dep = GridDeployment(3, 3, seed=31)
            return run_network_scenario(
                dep,
                [paper_ship(dep, cross_time_s=30.0)],
                sid_config=SIDNodeConfig(
                    detector=NodeDetectorConfig(m=2.0, af_threshold=0.4),
                    cluster=TemporaryClusterConfig(min_rows=3),
                ),
                synthesis_config=SynthesisConfig(duration_s=60.0),
                faults=faults,
                healing=healing,
                resync_interval_s=20.0,
                seed=9,
            )

        fast = [run(*arm) for arm in arms]
        monkeypatch.setattr(nodeproc, "Simulator", ReferenceSimulator)
        with full_schedule():
            reference = [run(*arm) for arm in arms]
        assert fast[0].mac_stats["transmissions"] > 0
        assert fast[3].fault_stats["cold_restarts"] == 2
        assert [scenario_digest(r) for r in fast] == [
            scenario_digest(r) for r in reference
        ]

"""Event-loop fast path gates — tuple heap + event diet.

The event-loop rewrite rebuilt the discrete-event core (plain
``(time, seq, event)`` tuple heap, native periodics) and
put the network runner on an event diet (quiet-window feeds coalesced
into batched catch-up events, no-op MAC airtime and tick events gone).
Two gates make the claims quantitative, both against a faithful copy
of the pre-rewrite simulator, the test oracle
:class:`tests.network.oracles.ReferenceSimulator`:

- **Scheduler microbench**: ~1.2M mixed schedule/pop/rearm operations
  must run at least ``MIN_CORE_SPEEDUP`` faster on the tuple heap than
  on the old dataclass-entry heap, in the median of alternating pairs.
- **End-to-end runner**: a 64-node, event-loop-dominated scenario must
  finish at least ``MIN_RUNNER_SPEEDUP`` faster than the reference
  simulator on the full schedule (every window fed, every tick
  queued: :func:`tests.scenario.oracles.full_schedule`) — with a
  bit-identical
  :class:`NetworkScenarioResult` digest, so the speed never buys a
  different answer.

Both arms are seeded; the digests make the equivalence part of the
gate bit-reproducible.
"""

from __future__ import annotations

import time

from repro.detection.node_detector import NodeDetectorConfig
from repro.detection.sid import SIDNodeConfig
from repro.network.simulator import Simulator
from repro.rng import make_rng
from repro.scenario.deployment import GridDeployment
from repro.scenario.digest import scenario_digest
from repro.scenario.runner import run_network_scenario
from repro.scenario.synthesis import SynthesisConfig
from tests.network.oracles import ReferenceSimulator

from benchmarks.test_bench_fleet_detection import median_pair_speedup
from tests.scenario.oracles import full_schedule

#: End-to-end floor: new scheduler + event diet vs reference simulator
#: with the one-event-per-window schedule.  Measured ~2.4x on the dev
#: container; 1.5x leaves headroom for noisy CI runners.
MIN_RUNNER_SPEEDUP = 1.5

#: Core-op floor for the tuple heap vs the dataclass-entry heap on the
#: mixed schedule/pop/rearm workload.  The median of 5 alternating
#: pairs on a 2-vCPU host read 4.75x (1,809 vs 8,141 ms); gate at 3x so
#: contention on shared CI runners cannot flip it.
MIN_CORE_SPEEDUP = 3.0

ROUNDS = 3

#: Microbench workload: ~1.2M mixed heap operations — periodic trains
#: (the runner's ticks/beacons shape: rearmed natively by the new
#: scheduler, pre-scheduled in full by the old one) and one-shot events
#: at random times.
N_ONESHOTS = 200_000
N_TRAINS = 2_000
TRAIN_FIRINGS = 200
TRAIN_INTERVAL_S = 5.0


# ---------------------------------------------------------------------------
# Gate 1: scheduler microbench.
# ---------------------------------------------------------------------------


def _heap_workload(sim_cls) -> int:
    """~1.2M mixed schedule/pop/rearm ops over a deep heap."""
    sim = sim_cls()
    rng = make_rng(4242)
    noop = int  # cheapest real callable: int() -> 0
    # Staggered periodic trains, the shape the runner's ticks and
    # resync beacons put on the heap.
    for k in range(N_TRAINS):
        first = 0.5 + (k % 97) * 0.01
        sim.schedule_periodic(
            TRAIN_INTERVAL_S,
            noop,
            first=first,
            until=first + TRAIN_INTERVAL_S * TRAIN_FIRINGS,
        )
    # One-shots at random times.
    times = rng.uniform(0.0, 1_000.0, size=N_ONESHOTS)
    schedule_at = sim.schedule_at
    for t in times.tolist():
        schedule_at(t, noop)
    executed = sim.run()
    # Float accumulation can fit one extra firing into some trains;
    # both arms accumulate identically, so the exact count is compared
    # across arms in the test instead of pinned here.
    assert executed >= N_TRAINS * TRAIN_FIRINGS + N_ONESHOTS
    return executed


def _best_of(fn, *args, rounds: int = ROUNDS):
    times = []
    result = None
    for _ in range(rounds):
        start = time.perf_counter()
        result = fn(*args)
        times.append(time.perf_counter() - start)
    return min(times), result


def test_bench_scheduler_core(once):
    executed = [once(_heap_workload, Simulator)]
    speedup, t_new, t_ref = median_pair_speedup(
        lambda: executed.append(_heap_workload(Simulator)),
        lambda: executed.append(_heap_workload(ReferenceSimulator)),
    )
    assert len(set(executed)) == 1, "arms executed different event counts"
    ops = (
        N_TRAINS * TRAIN_FIRINGS  # rearms (new) / pre-schedules (ref)
        + N_ONESHOTS
        + executed[0]  # pops
    )
    print(
        f"\nscheduler core ({ops / 1e6:.2f}M ops): "
        f"tuple heap {t_new * 1e3:.0f} ms, "
        f"reference {t_ref * 1e3:.0f} ms "
        f"(median pair {speedup:.2f}x)"
    )
    assert speedup >= MIN_CORE_SPEEDUP, (
        f"tuple-heap scheduler only {speedup:.2f}x faster than the "
        f"reference heap; gate is {MIN_CORE_SPEEDUP}x"
    )


# ---------------------------------------------------------------------------
# Gate 2: end-to-end network runner, 64 nodes, no ship — the schedule
# is almost entirely window feeds, ticks and resync beacons, so the
# event loop dominates and the elision diet has maximal surface.
# ---------------------------------------------------------------------------

N_SIDE = 8
DURATION_S = 400.0
SEED = 23


def _runner_scenario():
    dep = GridDeployment(N_SIDE, N_SIDE, seed=17)
    cfg = SIDNodeConfig(detector=NodeDetectorConfig(hop_s=0.2))
    return run_network_scenario(
        dep,
        [],
        sid_config=cfg,
        synthesis_config=SynthesisConfig(duration_s=DURATION_S),
        seed=SEED,
    )


def test_bench_network_runner_64(once, monkeypatch):
    import repro.network.nodeproc as nodeproc

    def reference_arm():
        # The pre-rewrite scheduler on the one-event-per-window
        # schedule with every tick queued up front.
        with monkeypatch.context() as mp, full_schedule():
            mp.setattr(nodeproc, "Simulator", ReferenceSimulator)
            return _runner_scenario()

    # Warm both arms once (imports, numpy caches), then time.
    fast_result = once(_runner_scenario)
    ref_result = reference_arm()
    assert scenario_digest(fast_result) == scenario_digest(ref_result), (
        "fast path diverged from the reference simulator run"
    )
    assert not fast_result.intrusion_detected

    t_fast, _ = _best_of(_runner_scenario)
    t_ref, _ = _best_of(reference_arm)
    speedup = t_ref / t_fast
    print(
        f"\n64-node runner ({DURATION_S:.0f}s sim): "
        f"fast path {t_fast:.2f} s, reference {t_ref:.2f} s "
        f"({speedup:.2f}x)"
    )
    assert speedup >= MIN_RUNNER_SPEEDUP, (
        f"runner fast path only {speedup:.2f}x over the reference "
        f"simulator; gate is {MIN_RUNNER_SPEEDUP}x"
    )

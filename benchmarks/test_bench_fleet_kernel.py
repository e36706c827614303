"""Fleet detection on a report-dense record — block kernel vs lockstep oracle.

:meth:`FleetDetector.step` speculates that windows are quiet and falls
back where a row reports, so its worst case is a record where rows
report often.  This bench detects one Table I recording (30 nodes,
400 s, the nuisance mix, no ship) at M = 1, af = 0.3, the table's most
report-dense setting, requires the reports to equal the one-window
lockstep oracle's bit for bit, and prints both walk times.
"""

from __future__ import annotations

import time

from repro.detection.fleet import FleetDetector
from repro.detection.node_detector import NodeDetectorConfig
from repro.detection.preprocess import preprocess_z_counts_batch
from repro.scenario.presets import paper_deployment
from repro.scenario.runner import FleetRecording
from repro.scenario.synthesis import (
    SynthesisConfig,
    random_disturbances,
    synthesize_fleet_traces,
)
from tests.detection.oracles import LockstepFleetDetector

SEED = 3
DETECTOR = NodeDetectorConfig(m=1.0, af_threshold=0.3)


def _best_of(fn, rounds: int = 5) -> float:
    times = []
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


def test_bench_fleet_kernel_report_dense(once):
    dep = paper_deployment(seed=SEED)
    synth = SynthesisConfig(duration_s=400.0)
    nuisances = random_disturbances(
        dep,
        synth,
        gusts_per_node_hour=1.0,
        bumps_per_node_hour=0.5,
        seed=SEED + 999,
    )
    recording = FleetRecording.from_traces(
        dep,
        synthesize_fleet_traces(
            dep, [], synth, disturbances_by_node=nuisances, seed=SEED * 100 + 10
        ),
    )
    a = preprocess_z_counts_batch(
        recording.z, DETECTOR.rate_hz, DETECTOR.preprocess
    )
    t0s = recording.t0s
    members = FleetDetector.from_deployment(dep, DETECTOR).members

    block = once(lambda: FleetDetector(members, DETECTOR).process_samples(a, t0s))
    assert block == LockstepFleetDetector(members, DETECTOR).process_samples(
        a, t0s
    )
    n_reports = sum(len(r) for r in block.values())
    assert n_reports > 1000

    t_block = _best_of(
        lambda: FleetDetector(members, DETECTOR).process_samples(a, t0s)
    )
    t_oracle = _best_of(
        lambda: LockstepFleetDetector(members, DETECTOR).process_samples(a, t0s)
    )
    print()
    print(
        f"report-dense fleet detection ({len(members)} nodes, 400 s, "
        f"M={DETECTOR.m}, af={DETECTOR.af_threshold}, {n_reports} reports): "
        f"block {t_block * 1e3:.1f} ms, lockstep oracle "
        f"{t_oracle * 1e3:.1f} ms, ratio {t_oracle / t_block:.2f}x"
    )

"""Reference forms of the experiment drivers, kept as test oracles.

- :func:`fig11_cell` — one Fig. 11 trial that synthesises its own
  scenario on every call, with no memo: what
  :func:`repro.analysis.experiments.fig11_cell` must return for any
  call order.
"""

from __future__ import annotations

from repro.analysis.experiments import _heavy_nuisances
from repro.detection.node_detector import NodeDetectorConfig
from repro.scenario.metrics import classify_alarms
from repro.scenario.presets import paper_deployment, paper_ship
from repro.scenario.runner import FleetRecording, run_offline_scenario
from repro.scenario.synthesis import SynthesisConfig, synthesize_fleet_traces


def fig11_cell(
    m: float,
    af: float,
    seed: int,
    seed_offset: int = 0,
    eval_half_window_s: float = 60.0,
) -> tuple[int, int]:
    """One Fig. 11 trial: ``(true_positives, false_positives)``."""
    dep = paper_deployment(seed=seed + seed_offset)
    # Out-and-back testing runs, as in the paper's trials.
    outbound = paper_ship(dep, cross_time_s=140.0)
    inbound = paper_ship(
        dep,
        alpha_deg=110.0,
        cross_time_s=280.0,
        column_gap=2.5,
    )
    ships = [outbound, inbound]
    synth = SynthesisConfig(duration_s=400.0)
    nuisances = _heavy_nuisances(
        dep, synth, seed=seed + seed_offset + 7919
    )
    traces = synthesize_fleet_traces(
        dep,
        ships,
        synth,
        disturbances_by_node=nuisances,
        seed=(seed + seed_offset) * 100,
    )
    res = run_offline_scenario(
        dep,
        ships,
        detector_config=NodeDetectorConfig(m=m, af_threshold=af),
        recording=FleetRecording.from_traces(dep, traces),
    )
    cross_times = [s.time_at_point(dep.center()) for s in ships]
    tp = fp = 0
    for nid, reps in res.merged_by_node.items():
        near = [
            r
            for r in reps
            if any(
                abs(r.onset_time - ct) < eval_half_window_s
                for ct in cross_times
            )
        ]
        ca = classify_alarms(
            near,
            res.truth_windows_by_node[nid],
            tolerance_s=3.0,
        )
        tp += ca.true_positives
        fp += ca.false_positives
    return tp, fp

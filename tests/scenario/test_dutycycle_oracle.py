"""The duty-cycled runner's window walk against the sequential oracle.

``run_dutycycled_scenario`` steps the fleet one window group at a time,
picking every row's branch with array masks.  On a fixed case table and
on generated scenarios and policies (run with ``HYPOTHESIS_PROFILE=ci``
for ten times the examples), each run is repeated with
:func:`tests.scenario.oracles.sequential_dutycycle` — the node-by-node,
window-by-window loop — substituted, and must give bit-identical
reports, first alarm, wake intervals and policy trace.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.constants import NODE_LOWPASS_CUTOFF_HZ
from repro.detection.dutycycle import DutyCycleConfig
from repro.detection.node_detector import NodeDetectorConfig, window_starts
from repro.errors import ConfigurationError
from repro.scenario import runner
from repro.scenario.deployment import GridDeployment
from repro.scenario.presets import paper_ship
from repro.scenario.runner import run_dutycycled_scenario
from repro.scenario.synthesis import SynthesisConfig
from repro.sensors.sampler import Sampler
from repro.telemetry import InMemorySink, ManualClock, Tracer
from repro.telemetry.events import CAT_PROFILING
from tests.scenario import oracles

DETECTOR = NodeDetectorConfig(m=2.0, af_threshold=0.5)
SEEDS = (5, 23, 31, 47)
CASES = {
    "default": DutyCycleConfig(),
    "full_rate": DutyCycleConfig(coarse_rate_hz=None),
}


@st.composite
def _policies(draw) -> DutyCycleConfig:
    return DutyCycleConfig(
        sentinel_fraction=draw(st.floats(0.0, 1.0, exclude_min=True)),
        rotation_period_s=draw(st.floats(10.0, 120.0)),
        wakeup_latency_s=draw(st.floats(0.001, 10.0)),
        hold_s=draw(st.floats(10.0, 300.0)),
        coarse_rate_hz=draw(st.sampled_from([None, 10.0, 25.0])),
    )


def _run(rows, columns, duration_s, duty, seed, oracle):
    dep = GridDeployment(rows, columns, seed=seed)
    ship = paper_ship(dep, cross_time_s=duration_s / 2.0)
    trace = InMemorySink()
    with pytest.MonkeyPatch.context() as mp:
        if oracle:
            mp.setattr(
                runner, "_dutycycled_reports", oracles.sequential_dutycycle
            )
        result = run_dutycycled_scenario(
            dep,
            [ship],
            detector_config=DETECTOR,
            duty_config=duty,
            synthesis_config=SynthesisConfig(duration_s=duration_s),
            seed=seed,
            tracer=Tracer([trace], clock=ManualClock(tick_s=0.001)),
        )
    policy_trace = [
        (e.category, e.name, e.sim_time_s, e.node_id, e.fields)
        for e in trace.events
        if e.category != CAT_PROFILING
    ]
    return result, policy_trace


def _assert_walk_matches_oracle(rows, columns, duration_s, duty, seed):
    walk, walk_trace = _run(rows, columns, duration_s, duty, seed, False)
    ref, ref_trace = _run(rows, columns, duration_s, duty, seed, True)
    assert walk.reports_by_node == ref.reports_by_node
    assert walk.first_alarm_time == ref.first_alarm_time
    assert walk.controller._wake_intervals == ref.controller._wake_intervals
    assert walk_trace == ref_trace
    return walk


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("case", sorted(CASES))
def test_walk_matches_sequential_oracle(case, seed):
    walk = _assert_walk_matches_oracle(3, 3, 120.0, CASES[case], seed)
    assert walk.n_reports > 0


@given(
    rows=st.integers(2, 3),
    columns=st.integers(2, 3),
    duration_s=st.integers(60, 150).map(float),
    duty=_policies(),
    seed=st.integers(0, 2**20),
)
@settings(max_examples=settings.default.max_examples // 5, deadline=None)
def test_generated_walk_matches_sequential_oracle(
    rows, columns, duration_s, duty, seed
):
    _assert_walk_matches_oracle(rows, columns, duration_s, duty, seed)


@given(
    rate_hz=st.floats(20.0, 100.0),
    decimation=st.integers(1, 24),
    window_s=st.floats(0.2, 10.0),
    hop_fraction=st.floats(0.01, 1.0),
    duration_s=st.floats(0.0, 600.0),
)
def test_every_coarse_segment_is_complete(
    rate_hz, decimation, window_s, hop_fraction, duration_s
):
    # The walk takes each sentinel window's coarse segment without a
    # length check (the _dutycycled_reports docstring proves none can
    # run short).  Configurations as run_dutycycled_scenario derives
    # them, for any rate, decimation, window and hop.
    assume(rate_hz / decimation > 2 * NODE_LOWPASS_CUTOFF_HZ)
    det_cfg = NodeDetectorConfig(
        window_s=window_s, hop_s=hop_fraction * window_s, rate_hz=rate_hz
    )
    coarse_cfg = (
        replace(det_cfg, rate_hz=det_cfg.rate_hz / decimation)
        if decimation > 1
        else det_cfg
    )
    n = Sampler(rate_hz).count(duration_s)
    coarse_samples = np.arange(n)[::decimation].size
    starts = np.array(window_starts(det_cfg, n), dtype=np.int64)
    ends = starts // decimation + coarse_cfg.window_samples
    assert np.all(ends <= coarse_samples)


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

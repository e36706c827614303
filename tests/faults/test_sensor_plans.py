"""Generated sensor-fault plans against the decorator oracle.

The network runner applies a plan's sensor faults to the z counts a
healthy synthesis recorded (``FaultInjector.corrupt_counts``).  The
oracle, :func:`tests.faults.oracles.synthesize_with_faults`, instead
decorates each faulted mote's accelerometer for the length of
synthesis.  Hypothesis draws one to three faults of any kind per node
of a 2x2 grid, with windows before, across and after the 60 s record,
and checks that both give the same z bit for bit and the same
:class:`~repro.faults.plan.FaultStats`.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan, SensorFault, SensorFaultKind
from repro.scenario.presets import paper_scenario
from repro.scenario.runner import FleetRecording
from repro.scenario.synthesis import synthesize_fleet_traces
from tests.faults.oracles import synthesize_with_faults

SEED = 5
DURATION_S = 60.0


def _scenario():
    return paper_scenario(rows=2, columns=2, duration_s=DURATION_S, seed=SEED)


@lru_cache(maxsize=1)
def _healthy() -> FleetRecording:
    dep, ship, synth = _scenario()
    traces = synthesize_fleet_traces(dep, [ship], synth, seed=SEED)
    return FleetRecording.from_traces(dep, traces)


@st.composite
def _fault(draw, node_id: int) -> SensorFault:
    kind = draw(st.sampled_from(list(SensorFaultKind)))
    magnitude = {
        # Past full scale too, so the re-clip matters.
        SensorFaultKind.STUCK_AT: st.floats(-3000.0, 3000.0),
        SensorFaultKind.DRIFT: st.floats(-80.0, 80.0),
        SensorFaultKind.SPIKE: st.floats(0.0, 3000.0),
        SensorFaultKind.SATURATION: st.floats(0.01, 1.0),
        SensorFaultKind.DROPOUT: st.floats(0.0, 1.0),
    }[kind]
    return SensorFault(
        node_id,
        kind,
        start_s=draw(st.floats(-40.0, DURATION_S + 20.0)),
        duration_s=draw(st.one_of(st.just(math.inf), st.floats(0.1, 50.0))),
        magnitude=draw(magnitude),
        # Up to and past the 50 Hz sample rate.
        rate_hz=draw(st.floats(0.1, 80.0)),
    )


@st.composite
def _plan(draw) -> FaultPlan:
    faults: list[SensorFault] = []
    for node_id in _healthy().node_ids:
        faults += draw(st.lists(_fault(node_id), min_size=1, max_size=3))
    # Interleave the nodes' faults: only each node's own order counts.
    return FaultPlan(
        sensor_faults=tuple(draw(st.permutations(faults))),
        seed=draw(st.integers(0, 2**16)),
    )


@given(plan=_plan())
@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_corrupted_recording_matches_decorated_synthesis(plan):
    healthy = _healthy()
    dep, ship, synth = _scenario()
    want, want_stats = synthesize_with_faults(dep, [ship], synth, plan, SEED)
    injector = FaultInjector(plan)
    z = np.stack(
        [
            injector.corrupt_counts(
                node.node_id,
                healthy.z[i],
                synth.t0,
                healthy.rate_hz,
                node.mote.accelerometer.spec.max_counts,
            )
            for i, node in enumerate(dep)
        ]
    )
    assert z.dtype == want.z.dtype
    assert np.array_equal(z, want.z)
    assert injector.stats == want_stats

"""The network runner's tick grid against its loop formulation.

``run_network_scenario`` lays out each node's cluster-evaluation tick
grid with ``np.add.accumulate``; hypothesis checks that
``runner._tick_times`` equals the ``t += window_s`` loop bit for bit.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.scenario import runner


def _tick_loop(t0: float, step: float, horizon: float) -> list[float]:
    out = []
    t = t0 + step
    while t < horizon:
        out.append(t)
        t += step
    return out


@given(
    t0=st.floats(-5.0, 5.0, allow_nan=False),
    step=st.one_of(st.sampled_from([2.0, 0.5, 0.1]), st.floats(0.05, 5.0)),
    span_s=st.floats(0.0, 500.0, allow_nan=False),
)
def test_tick_grid_equals_the_loop(t0, step, span_s):
    horizon = t0 + span_s
    ticks = runner._tick_times(t0, step, horizon)
    assert (
        ticks.tobytes()
        == np.array(_tick_loop(t0, step, horizon), dtype=float).tobytes()
    )

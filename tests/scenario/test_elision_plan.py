"""The network runner's array elision plan against its per-time oracles.

``run_network_scenario`` plans quiet-window elision and timer ticks
with array operations: one ``np.searchsorted`` over each node's report
end times decides where the node may head an open cluster, and
``np.add.accumulate`` lays out the tick grid.  Hypothesis checks both
against the formulations they replace:

- ``runner._head_active_mask`` equals :func:`tests.scenario.oracles.
  head_active`, one bisect per query time, on ascending report end
  lists (empty, one entry, with duplicates) and query times placed
  exactly on an end and on an end plus the guard;
- ``runner._tick_times`` equals the ``t += window_s`` loop bit for bit.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.scenario import runner
from tests.scenario import oracles

_times = st.floats(-50.0, 500.0, allow_nan=False)


@st.composite
def _plan_inputs(draw):
    ends = sorted(draw(st.lists(_times, max_size=12)))
    if ends and draw(st.booleans()):
        # Duplicate end times: two reports at one window end.
        ends = sorted(ends + [ends[draw(st.integers(0, len(ends) - 1))]])
    guard_s = draw(
        st.one_of(st.sampled_from([0.0, 1.0, 65.0]), st.floats(0.0, 100.0))
    )
    on_ends = [draw(st.sampled_from(ends)) for _ in range(3)] if ends else []
    queries = sorted(
        draw(st.lists(_times, max_size=20))
        + on_ends
        + [t + guard_s for t in on_ends]
    )
    return ends, guard_s, queries


def _tick_loop(t0: float, step: float, horizon: float) -> list[float]:
    out = []
    t = t0 + step
    while t < horizon:
        out.append(t)
        t += step
    return out


@given(
    plan=_plan_inputs(),
    t0=st.floats(-5.0, 5.0, allow_nan=False),
    step=st.one_of(st.sampled_from([2.0, 0.5, 0.1]), st.floats(0.05, 5.0)),
    span_s=st.floats(0.0, 500.0, allow_nan=False),
)
def test_array_plan_equals_per_time_oracles(plan, t0, step, span_s):
    ends, guard_s, queries = plan
    mask = runner._head_active_mask(
        np.array(ends, dtype=float), np.array(queries, dtype=float), guard_s
    )
    assert mask.tolist() == [
        oracles.head_active(ends, t, guard_s) for t in queries
    ]
    horizon = t0 + span_s
    ticks = runner._tick_times(t0, step, horizon)
    assert (
        ticks.tobytes()
        == np.array(_tick_loop(t0, step, horizon), dtype=float).tobytes()
    )

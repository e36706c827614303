"""Property-based tests for the DES core and speed estimator."""

from __future__ import annotations

import math

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.detection.speed import estimate_ship_speed
from repro.errors import EstimationError
from repro.network.simulator import Simulator
from repro.physics.kelvin import KelvinWake
from repro.types import Position


@given(st.lists(st.floats(0.0, 1e4, allow_nan=False), max_size=60))
def test_simulator_executes_in_nondecreasing_time_order(delays):
    sim = Simulator()
    fired = []
    for d in delays:
        sim.schedule(d, lambda dd=d: fired.append(sim.now))
    sim.run()
    assert fired == sorted(fired)
    assert len(fired) == len(delays)


@given(
    st.floats(46.0, 89.0, allow_nan=False),
    st.floats(1.0, 12.0, allow_nan=False),
    st.floats(5.0, 60.0, allow_nan=False),
)
@settings(max_examples=60)
def test_speed_inversion_roundtrip(alpha_deg, speed, spacing):
    """Forward Kelvin timestamps (theta = 20 deg) invert exactly."""
    assume(abs(alpha_deg - 70.0) > 2.0)  # eq. 16's singular direction
    alpha = math.radians(alpha_deg)
    origin = Position(
        spacing / 2.0 - 500.0 * math.cos(alpha),
        spacing / 2.0 - 500.0 * math.sin(alpha),
    )
    wake = KelvinWake(
        origin=origin,
        heading_rad=alpha,
        speed_mps=speed,
        half_angle_rad=math.radians(20.0),
    )
    cols = {0: 0.0, 1: spacing}
    lat = lambda p: wake.track_coordinates(p)[1]
    nodes = {
        c: (Position(x, 0.0), Position(x, spacing)) for c, x in cols.items()
    }
    # Both nodes of each column must lie on one side (validity regime).
    sides = {
        c: (lat(a) > 0, lat(b) > 0) for c, (a, b) in nodes.items()
    }
    assume(all(s[0] == s[1] for s in sides.values()))
    assume(sides[0][0] != sides[1][0])
    port = nodes[0] if sides[0][0] else nodes[1]
    star = nodes[1] if sides[0][0] else nodes[0]
    t1, t2 = wake.arrival_time(port[0]), wake.arrival_time(port[1])
    t3, t4 = wake.arrival_time(star[0]), wake.arrival_time(star[1])
    if t1 > t2:
        t1, t2 = t2, t1
        t3, t4 = t4, t3
    try:
        est = estimate_ship_speed(spacing, t1, t2, t3, t4)
    except EstimationError:
        # Numerically degenerate draws (near-zero dt) are acceptable.
        return
    assert est.speed_mean_mps == pytest.approx(speed, rel=0.02)


import pytest  # noqa: E402  (used inside the property test)

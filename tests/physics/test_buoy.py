"""Tests for buoy dynamics (heave, tilt, mooring drift)."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.constants import GRAVITY
from repro.errors import ConfigurationError
from repro.physics import buoy as buoy_module
from repro.physics.buoy import Buoy, BuoyMotion
from repro.rng import make_rng
from repro.types import Position
from tests.physics.oracles import buoy_specific_force


@pytest.fixture
def buoy():
    return Buoy(Position(10.0, 20.0), seed=5)


def _one_buoy_block(buoy, t, az, horizontal=None):
    """``buoy``'s motion, projected as a one-buoy block."""

    def row(values):
        return np.array([np.broadcast_to(values, t.shape)], dtype=float)

    if horizontal is not None:
        horizontal = (row(horizontal[0]), row(horizontal[1]))
    fz, fx, fy = Buoy.specific_force([buoy], t, row(az), horizontal)
    if fx is None or fy is None:
        return BuoyMotion(t=t, fx=None, fy=None, fz=fz[0])
    return BuoyMotion(t=t, fx=fx[0], fy=fy[0], fz=fz[0])


def test_drift_bounded_by_radius(buoy):
    t = np.linspace(0, 3600, 10000)
    dx, dy = buoy.drift_offsets(t)
    r = np.hypot(dx, dy)
    assert r.max() <= buoy.drift_radius_m + 1e-9


def test_drift_actually_moves(buoy):
    t = np.linspace(0, 600, 2000)
    dx, dy = buoy.drift_offsets(t)
    assert np.hypot(dx, dy).max() > 0.2


def test_zero_drift_radius():
    b = Buoy(Position(0, 0), drift_radius_m=0.0, seed=1)
    dx, dy = b.drift_offsets(np.linspace(0, 100, 50))
    assert np.all(dx == 0) and np.all(dy == 0)


def test_position_at_offsets_anchor(buoy):
    p = buoy.position_at(123.0)
    assert abs(p.x - 10.0) <= buoy.drift_radius_m
    assert abs(p.y - 20.0) <= buoy.drift_radius_m


def test_deterministic_for_seed():
    t = np.linspace(0, 100, 500)
    a = Buoy(Position(0, 0), seed=3)
    b = Buoy(Position(0, 0), seed=3)
    assert np.array_equal(a._tilt(t)[0], b._tilt(t)[0])
    assert np.array_equal(a.drift_offsets(t)[0], b.drift_offsets(t)[0])


def test_tilt_rms_near_configuration():
    b = Buoy(Position(0, 0), tilt_rms_deg=8.0, seed=7)
    t = np.linspace(0, 3600, 30000)
    tx, _ = b._tilt(t)
    rms_deg = np.degrees(np.sqrt(np.mean(tx**2)))
    assert 4.0 < rms_deg < 12.0


def test_resting_specific_force_is_gravity():
    b = Buoy(Position(0, 0), tilt_rms_deg=0.0, seed=1)
    t = np.linspace(0, 10, 100)
    m = _one_buoy_block(b, t, 0.0, (0.0, 0.0))
    assert np.allclose(m.fz, GRAVITY)
    assert np.allclose(m.fx, 0.0)
    assert np.allclose(m.fy, 0.0)


def test_vertical_accel_passes_through_untitled():
    b = Buoy(Position(0, 0), tilt_rms_deg=0.0, seed=1)
    t = np.linspace(0, 10, 500)
    az = 0.5 * np.sin(2 * np.pi * 0.3 * t)
    m = _one_buoy_block(b, t, az)
    assert np.allclose(m.fz, GRAVITY + az)


def test_tilt_projects_gravity_sideways(buoy):
    t = np.linspace(0, 120, 6000)
    m = _one_buoy_block(buoy, t, 0.0, (0.0, 0.0))
    # Horizontal axes pick up large gravity components; z shrinks.
    assert m.fx.std() > 0.3
    assert np.all(m.fz <= GRAVITY + 1e-9)


def test_heave_gain_low_frequency_unity(buoy):
    assert buoy.heave_gain(0.01) > 0.99


def test_heave_gain_rolls_off(buoy):
    assert buoy.heave_gain(buoy.heave_corner_hz) == pytest.approx(
        1.0 / np.sqrt(2.0)
    )
    assert buoy.heave_gain(5.0) < 0.05


def test_heave_gain_vectorised(buoy):
    g = buoy.heave_gain(np.array([0.1, 0.6, 2.0]))
    assert g.shape == (3,)
    assert np.all(np.diff(g) < 0)


def test_horizontal_accel_added(buoy):
    t = np.linspace(0, 10, 500)
    ah = np.ones_like(t)
    with_h = _one_buoy_block(buoy, t, 0.0, (ah, ah))
    without = _one_buoy_block(buoy, t, 0.0, (0.0, 0.0))
    assert np.allclose(with_h.fx - without.fx, 1.0)
    assert np.allclose(with_h.fy - without.fy, 1.0)


def test_z_only_motion_has_the_three_axis_fz(buoy):
    # Without horizontal surface motion no x/y axis is built, and fz is
    # the three-axis projection's bit for bit.
    t = np.arange(3000) / 50.0
    az = 0.4 * np.sin(2 * np.pi * 0.2 * t)
    z_only = _one_buoy_block(buoy, t, az)
    full = _one_buoy_block(buoy, t, az, (np.ones_like(t), -np.ones_like(t)))
    assert z_only.fx is None and z_only.fy is None
    assert np.array_equal(z_only.fz, full.fz)


@given(
    n_buoys=st.integers(1, 64),
    n_samples=st.one_of(st.integers(1, 200), st.integers(1, 20_000)),
    t0=st.floats(0.0, 3600.0),
    offset=st.integers(0, 180_000),
    horizontal=st.booleans(),
    sub_block=st.integers(1, 64),
    seed=st.integers(0, 2**20),
)
# A 64-buoy block of 400 s records in 3-buoy sub-blocks, and a chunk
# within one sinusoid block.
@example(
    n_buoys=64,
    n_samples=20_000,
    t0=0.0,
    offset=0,
    horizontal=True,
    sub_block=3,
    seed=1,
)
@example(
    n_buoys=9,
    n_samples=150,
    t0=123.46,
    offset=777,
    horizontal=False,
    sub_block=2,
    seed=5,
)
@settings(max_examples=settings.default.max_examples // 5, deadline=None)
def test_block_projection_equals_the_per_buoy_oracle(
    n_buoys, n_samples, t0, offset, horizontal, sub_block, seed
):
    """Every row of a block is its buoy's own projection, bit for bit.

    For any block size, grid length and start (a chunk at ``offset``
    samples into a record starting at ``t0``, records within one
    sinusoid block included), z only or with the horizontal axes, and
    sub-blocks of 1 to all of the buoys.
    """
    sub_block = min(sub_block, n_buoys)
    t = t0 + np.arange(offset, offset + n_samples) / 50.0
    rng = make_rng(seed)
    buoys = [
        Buoy(
            Position(float(i), 0.0),
            tilt_rms_deg=float(rng.uniform(0.0, 20.0)),
            tilt_period_s=float(rng.uniform(1.0, 10.0)),
            seed=seed + i,
        )
        for i in range(n_buoys)
    ]
    az = rng.normal(0.0, 0.5, size=(n_buoys, n_samples))
    rows = (
        (rng.normal(size=az.shape), rng.normal(size=az.shape))
        if horizontal
        else None
    )
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(
            buoy_module,
            "TILT_BLOCK_BYTES",
            sub_block * buoy_module._tilt_bytes_per_buoy(n_samples),
        )
        fz, fx, fy = Buoy.specific_force(buoys, t, az.copy(), rows)
    assert fz.shape == az.shape
    assert (fx is None) == (fy is None) == (not horizontal)
    for i, buoy in enumerate(buoys):
        want = buoy_specific_force(
            buoy, t, az[i], None if rows is None else (rows[0][i], rows[1][i])
        )
        assert fz[i].tobytes() == want.fz.tobytes()
        if horizontal:
            assert fx[i].tobytes() == want.fx.tobytes()
            assert fy[i].tobytes() == want.fy.tobytes()


@pytest.mark.parametrize("n_samples", [200, 500, 3_000, 20_000])
def test_block_projection_peak_stays_near_its_budget(n_samples):
    # A sub-block's tilt rows and in-block offset factors fit
    # TILT_BLOCK_BYTES; the projection's temporaries come on top.
    t = np.arange(n_samples) / 50.0
    buoys = [Buoy(Position(float(i), 0.0), seed=i) for i in range(64)]
    az = np.zeros((64, n_samples))
    tracemalloc.start()
    try:
        Buoy.specific_force(buoys, t, az)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * buoy_module.TILT_BLOCK_BYTES


def test_block_projection_writes_fz_over_its_input(buoy):
    t = np.arange(300) / 50.0
    az = np.zeros((1, t.size))
    fz, fx, fy = Buoy.specific_force([buoy], t, az)
    assert fz is az and fx is None and fy is None
    with pytest.raises(ConfigurationError, match="row per buoy"):
        Buoy.specific_force([buoy, buoy], t, np.zeros((1, t.size)))


def test_motion_needs_both_horizontal_axes_or_neither():
    t = np.zeros(3)
    with pytest.raises(ConfigurationError, match="together"):
        BuoyMotion(t=t, fx=t, fy=None, fz=t)
    with pytest.raises(ConfigurationError, match="length"):
        BuoyMotion(t=t, fx=None, fy=None, fz=np.zeros(4))


def test_invalid_parameters_rejected():
    with pytest.raises(ConfigurationError):
        Buoy(Position(0, 0), drift_radius_m=-1.0)
    with pytest.raises(ConfigurationError):
        Buoy(Position(0, 0), tilt_rms_deg=-1.0)
    with pytest.raises(ConfigurationError):
        Buoy(Position(0, 0), heave_corner_hz=0.0)
    with pytest.raises(ConfigurationError, match="period"):
        Buoy(Position(0, 0), tilt_period_s=0.0)
    with pytest.raises(ConfigurationError, match="period"):
        Buoy(Position(0, 0), drift_period_s=-1.0)

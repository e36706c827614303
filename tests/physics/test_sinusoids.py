"""Block angle addition must match direct evaluation of sums of sinusoids.

:func:`grid_sinusoid_sum` takes trig only at block starts and in-block
offsets; the admissible difference from the full-grid shared-trig GEMM
(:func:`tests.physics.oracles.shared_trig_sum`) is the grid's own
unevenness plus angle-addition rounding, bounded here by 1e-12 of the
largest value a row can reach.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.physics.buoy import Buoy
from repro.physics.sinusoids import BLOCK, grid_sinusoid_sum
from repro.rng import make_rng
from repro.sensors.sampler import Sampler
from repro.types import Position
from tests.physics.oracles import direct_process_sum, shared_trig_sum

RATE_HZ = 50.0


def _terms(n_rows: int, n_terms: int, seed: int = 0):
    rng = make_rng(seed)
    omega = 2.0 * math.pi * rng.uniform(0.03, 1.5, size=n_terms)
    return (
        omega,
        rng.standard_normal((n_rows, n_terms)),
        rng.standard_normal((n_rows, n_terms)),
    )


def _grid(n: int, t0: float = 0.0) -> np.ndarray:
    return t0 + np.arange(n) / RATE_HZ


def _assert_matches_direct(omega, t, c, s) -> None:
    got = grid_sinusoid_sum(omega, t, c, s)
    want = shared_trig_sum(omega, t, c, s)
    assert got.shape == want.shape == (c.shape[0], np.size(t))
    # |row| <= sum_k hypot(c, s): the error budget scales with it.
    scale = float(np.hypot(c, s).sum(axis=1).max())
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12 * scale)


@pytest.mark.parametrize(
    "n_rows, n_terms, n_samples",
    [(1, 6, 20_000), (30, 96, 20_000), (64, 96, 1_000)],
)
def test_pipeline_shapes_match_direct(n_rows, n_terms, n_samples):
    omega, c, s = _terms(n_rows, n_terms)
    _assert_matches_direct(omega, _grid(n_samples), c, s)


@pytest.mark.parametrize(
    "n_samples", [1, 2, 3, BLOCK - 1, BLOCK, BLOCK + 1, 7 * BLOCK + 13]
)
def test_short_and_ragged_records_match_direct(n_samples):
    omega, c, s = _terms(3, 12, seed=n_samples)
    _assert_matches_direct(omega, _grid(n_samples, t0=17.3), c, s)


def test_offset_start_matches_direct():
    omega, c, s = _terms(8, 96, seed=1)
    _assert_matches_direct(omega, _grid(20_000, t0=123.46), c, s)


def test_hour_long_record_matches_direct():
    omega, c, s = _terms(2, 48, seed=2)
    _assert_matches_direct(omega, _grid(int(3600 * RATE_HZ)), c, s)


def test_sampler_grid_slices_match_direct():
    omega, c, s = _terms(4, 32, seed=3)
    t = Sampler(RATE_HZ).instants(250.0, 300.0)
    for start, stop in [(0, 1000), (1000, 2000), (14_000, 15_000), (333, 334)]:
        _assert_matches_direct(omega, t[start:stop], c, s)


def test_empty_grid():
    omega, c, s = _terms(3, 5)
    assert grid_sinusoid_sum(omega, np.array([]), c, s).shape == (3, 0)


@pytest.mark.parametrize("skew_s", [1e-9, 1e-11, -1e-10])
def test_uneven_grid_raises(skew_s):
    omega, c, s = _terms(2, 6)
    t = _grid(20_000)
    t[777] += skew_s
    with pytest.raises(ConfigurationError):
        grid_sinusoid_sum(omega, t, c, s)


def test_jittered_grid_raises():
    omega, c, s = _terms(2, 6)
    t = np.sort(make_rng(4).uniform(0.0, 10.0, size=500))
    with pytest.raises(ConfigurationError):
        grid_sinusoid_sum(omega, t, c, s)


@pytest.mark.parametrize("seed", [0, 5, 41])
def test_buoy_processes_match_direct_sum(seed):
    buoy = Buoy(Position(10.0, -4.0), seed=seed)
    t = _grid(20_000, t0=37.0)
    for process in (buoy._tilt_x, buoy._tilt_y, buoy._drift_x, buoy._drift_y):
        got = process(t)
        want = direct_process_sum(process, t)
        scale = float(np.abs(process._amps).sum())
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12 * scale)
    # position_at evaluates one instant.
    pos = buoy.position_at(123.0)
    dx = direct_process_sum(buoy._drift_x, 123.0)[0]
    assert math.isclose(pos.x, buoy.anchor.x + dx, abs_tol=1e-12)

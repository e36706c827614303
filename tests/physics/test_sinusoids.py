"""Block angle addition must match direct evaluation of sums of sinusoids.

:func:`grid_sinusoid_sum` takes trig only at block starts and in-block
offsets; the admissible difference from the full-grid shared-trig GEMM
(:func:`tests.physics.oracles.shared_trig_sum`) is the grid's own
unevenness plus angle-addition rounding, bounded here by 1e-12 of the
largest value a row can reach.  With per-row frequencies (a buoy's two
tilt or drift axes in one call) every row must equal its own one-row
sum bit for bit, so batching the axes moves no count.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constants import GRAVITY
from repro.errors import ConfigurationError
from repro.physics.buoy import Buoy, _SinusoidProcess
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


#: Samples in the generated records (300 s at 50 Hz, a long_watch cell).
RECORD = 15_000


@st.composite
def _chunks(draw) -> tuple[int, int]:
    """``(start, length)`` of a chunk of a :data:`RECORD`-sample grid."""
    kind = draw(st.sampled_from(["whole", "aligned", "off-block", "short", "tiny"]))
    if kind == "whole":
        return 0, RECORD
    if kind == "aligned":
        blocks = draw(st.integers(1, RECORD // BLOCK))
        start = BLOCK * draw(st.integers(0, RECORD // BLOCK - blocks))
        return start, BLOCK * blocks
    length = {
        "off-block": st.integers(BLOCK + 1, RECORD),
        "short": st.integers(3, BLOCK - 1),
        "tiny": st.integers(1, 2),
    }[kind]
    n = draw(length)
    return draw(st.integers(0, RECORD - n)), n


@given(
    n_rows=st.integers(1, 4),
    n_terms=st.integers(1, 12),
    t0=st.sampled_from([0.0, 37.0, 123.46]),
    chunk=_chunks(),
    seed=st.integers(0, 2**32 - 1),
)
@settings(deadline=None)
def test_per_row_frequencies_equal_one_row_sums(n_rows, n_terms, t0, chunk, seed):
    # Whole records and block-aligned chunks contract (blocks, K) by
    # (K, BLOCK) GEMMs; a chunk shorter than one block is a single
    # (1, K) row, a gemv; 1-2 samples skip the grid check.
    rng = make_rng(seed)
    omega = 2.0 * math.pi * rng.uniform(0.03, 1.5, size=(n_rows, n_terms))
    c = rng.standard_normal((n_rows, n_terms))
    s = rng.standard_normal((n_rows, n_terms))
    start, n = chunk
    t = Sampler(RATE_HZ).instants(t0, RECORD / RATE_HZ)[start : start + n]
    got = grid_sinusoid_sum(omega, t, c, s)
    assert got.shape == (n_rows, n)
    for p in range(n_rows):
        row = grid_sinusoid_sum(omega[p], t, c[p : p + 1], s[p : p + 1])
        assert got[p].tobytes() == row[0].tobytes()


def test_rows_draw_in_one_row_process_order():
    # A two-row process draws what two one-row processes would, in
    # turn, from the same generator: Buoy keeps every pre-batching
    # tilt and drift realisation.
    both = _SinusoidProcess(make_rng(9), 0.3, (4.0, 5.2))
    rng = make_rng(9)
    rows = [_SinusoidProcess(rng, 0.3, (period,)) for period in (4.0, 5.2)]
    t = _grid(3_000, t0=11.0)
    got = both(t)
    for p, row in enumerate(rows):
        assert both._omega[p].tobytes() == row._omega[0].tobytes()
        assert both._cos_weights[p].tobytes() == row._cos_weights[0].tobytes()
        assert both._sin_weights[p].tobytes() == row._sin_weights[0].tobytes()
        assert got[p].tobytes() == row(t)[0].tobytes()


@pytest.mark.parametrize("seed", [0, 5, 41])
def test_buoy_processes_match_direct_sum(seed):
    buoy = Buoy(Position(10.0, -4.0), seed=seed)
    t = _grid(20_000, t0=37.0)
    for process in (buoy._tilt, buoy._drift):
        got = process(t)
        want = direct_process_sum(process, t)
        assert got.shape == want.shape == (2, t.size)
        # Each row's error budget scales with its own amplitudes.
        scale = np.abs(process._amps).sum(axis=1, keepdims=True)
        assert np.all(np.abs(got - want) <= 1e-12 * scale)
    # position_at evaluates one instant.
    pos = buoy.position_at(123.0)
    dx, dy = direct_process_sum(buoy._drift, 123.0)[:, 0]
    assert math.isclose(pos.x, buoy.anchor.x + dx, abs_tol=1e-12)
    assert math.isclose(pos.y, buoy.anchor.y + dy, abs_tol=1e-12)


def test_buoy_evaluates_tilt_and_drift_through_the_process_call(monkeypatch):
    # tests.physics.oracles.reference_synthesis checks the tilt and
    # drift by patching _SinusoidProcess.__call__; a Buoy path that
    # bypassed the call would escape that check unnoticed.  A block's
    # tilt is one call on its buoys' stacked rows (here one buoy's).
    calls = []

    def spy(process, t):
        calls.append(process)
        n = np.size(t)
        return np.stack([np.full(n, 0.1), np.full(n, 0.2)])

    monkeypatch.setattr(_SinusoidProcess, "__call__", spy)
    buoy = Buoy(Position(0.0, 0.0), seed=3)
    t = _grid(500)
    dx, dy = buoy.drift_offsets(t)
    assert calls == [buoy._drift]
    assert np.all(dx == 0.1) and np.all(dy == 0.2)
    rows = [np.zeros((1, t.size)) for _ in range(3)]
    fz, fx, fy = Buoy.specific_force([buoy], t, rows[0], (rows[1], rows[2]))
    (tilt,) = calls[1:]
    for name in ("_freqs", "_phases", "_amps", "_omega"):
        assert getattr(tilt, name).tobytes() == getattr(buoy._tilt, name).tobytes()
    np.testing.assert_allclose(fz, GRAVITY * math.cos(0.1) * math.cos(0.2))
    np.testing.assert_allclose(fx, GRAVITY * math.sin(0.2))
    np.testing.assert_allclose(fy, -GRAVITY * math.sin(0.1))

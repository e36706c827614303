"""Tests for the LIS3L02DQ accelerometer model."""

from __future__ import annotations

import copy
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.constants import GRAVITY
from repro.errors import ConfigurationError
from repro.sensors.accelerometer import (
    SKIP_BLOCK,
    Accelerometer,
    AccelerometerSpec,
    skip_normals,
)


@pytest.fixture
def quiet_accel():
    """Noise- and bias-free device for exact conversions."""
    return Accelerometer(
        AccelerometerSpec(noise_rms_counts=0.0, bias_rms_counts=0.0), seed=0
    )


def test_one_g_reads_1024_counts(quiet_accel):
    z = quiet_accel.read_axis(np.array([GRAVITY]), 2)
    assert z[0] == 1024


def test_zero_reads_zero(quiet_accel):
    assert quiet_accel.read_axis(np.array([0.0]), 0)[0] == 0


def test_clipping_at_2g(quiet_accel):
    big = quiet_accel.read_axis(np.array([5.0 * GRAVITY]), 2)
    assert big[0] == quiet_accel.spec.max_counts == 2048
    small = quiet_accel.read_axis(np.array([-5.0 * GRAVITY]), 2)
    assert small[0] == -2048


def test_output_is_integer(quiet_accel):
    out = quiet_accel.read_axis(np.array([1.2345]), 1)
    assert out.dtype == np.int64


def test_noise_rms_close_to_spec():
    accel = Accelerometer(
        AccelerometerSpec(noise_rms_counts=5.0, bias_rms_counts=0.0), seed=1
    )
    out = accel.read_axis(np.zeros(20000), 2)
    assert 4.0 < out.std() < 6.0


def test_bias_frozen_per_device():
    a = Accelerometer(AccelerometerSpec(noise_rms_counts=0.0), seed=3)
    first = a.read_axis(np.zeros(10), 0)
    second = a.read_axis(np.zeros(10), 0)
    assert np.array_equal(first, second)


def test_bias_differs_between_axes():
    a = Accelerometer(AccelerometerSpec(noise_rms_counts=0.0, bias_rms_counts=20.0), seed=4)
    x = a.read_axis(np.zeros(5), 0)[0]
    y = a.read_axis(np.zeros(5), 1)[0]
    z = a.read_axis(np.zeros(5), 2)[0]
    assert len({int(x), int(y), int(z)}) > 1


def test_bias_differs_between_devices():
    spec = AccelerometerSpec(noise_rms_counts=0.0, bias_rms_counts=20.0)
    a = Accelerometer(spec, seed=5)
    b = Accelerometer(spec, seed=6)
    assert not np.array_equal(a.bias_counts, b.bias_counts)


def test_three_axis_read(quiet_accel):
    x, y, z = quiet_accel.read(
        np.array([0.0]), np.array([0.0]), np.array([GRAVITY])
    )
    assert (x[0], y[0], z[0]) == (0, 0, 1024)


def test_z_read_equals_three_axis_z():
    # read_z skips the x and y draws: same z counts, and the noise
    # stream ends where the three-axis read leaves it.
    f = np.linspace(-3.0, 3.0, 1234)
    three, z_only = Accelerometer(seed=9), Accelerometer(seed=9)
    _, _, want = three.read(f, f, f + GRAVITY)
    got = z_only.read_z(f + GRAVITY)
    assert np.array_equal(got, want)
    assert (
        z_only._noise_rng.bit_generator.state
        == three._noise_rng.bit_generator.state
    )


def test_z_only_skip_holds_one_block():
    # A z-only 4 h record skips its 2N x/y normals block by block: the
    # skip's traced peak is one 65,536-normal block, never a 2N discard
    # array (11.5 MB), and the stream ends 2N normals on.
    n = 4 * 3600 * 50
    rng = np.random.default_rng(17)
    want = copy.deepcopy(rng)
    want.normal(size=2 * n)
    tracemalloc.start()
    try:
        skip_normals(rng, 2 * n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert SKIP_BLOCK == 65_536
    assert peak < SKIP_BLOCK * 8 + 64 * 1024
    assert rng.bit_generator.state == want.bit_generator.state


@given(count=st.integers(0, 3 * SKIP_BLOCK), seed=st.integers(0, 2**32 - 1))
def test_skip_leaves_the_stream_where_a_draw_does(count, seed):
    # Drawing into one reused buffer consumes the stream exactly as
    # one allocating draw of ``count`` normals.
    rng = np.random.default_rng(seed)
    want = copy.deepcopy(rng)
    skip_normals(rng, count)
    want.normal(size=count)
    assert rng.bit_generator.state == want.bit_generator.state


def test_invalid_axis_rejected(quiet_accel):
    with pytest.raises(ConfigurationError):
        quiet_accel.read_axis(np.array([0.0]), 3)


def test_spec_validation():
    with pytest.raises(ConfigurationError):
        AccelerometerSpec(noise_rms_counts=-1.0)
    with pytest.raises(ConfigurationError):
        AccelerometerSpec(bias_rms_counts=-1.0)


def test_mps2_to_counts_linear(quiet_accel):
    out = quiet_accel.mps2_to_counts(np.array([GRAVITY, 2 * GRAVITY]))
    assert np.allclose(out, [1024.0, 2048.0])

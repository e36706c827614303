"""Property-based tests: sensor conversions and trace persistence."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.constants import GRAVITY
from repro.sensors.accelerometer import Accelerometer, AccelerometerSpec
from repro.types import AccelTrace


@given(
    hnp.arrays(
        dtype=np.float64,
        shape=st.integers(1, 100),
        elements=st.floats(-60.0, 60.0, allow_nan=False, width=64),
    )
)
@settings(max_examples=40)
def test_accelerometer_output_clipped_and_integer(accel):
    device = Accelerometer(
        AccelerometerSpec(noise_rms_counts=0.0, bias_rms_counts=0.0), seed=1
    )
    out = device.read_axis(accel, 2)
    limit = device.spec.max_counts
    assert out.min() >= -limit
    assert out.max() <= limit
    assert out.dtype == np.int64


@given(st.floats(-1.9, 1.9, allow_nan=False))
def test_accelerometer_linear_in_range(g_level):
    device = Accelerometer(
        AccelerometerSpec(noise_rms_counts=0.0, bias_rms_counts=0.0), seed=2
    )
    out = device.read_axis(np.array([g_level * GRAVITY]), 2)
    assert out[0] == round(g_level * 1024.0)


@given(
    st.integers(2, 400),
    st.floats(0.0, 1e4, allow_nan=False),
    st.sampled_from([10.0, 50.0, 100.0]),
)
@settings(max_examples=30)
def test_trace_npz_roundtrip(n, t0, rate):
    import tempfile
    from pathlib import Path

    from repro.scenario.trace_io import load_traces, save_traces

    rng = np.random.default_rng(n)
    trace = AccelTrace(
        t0=t0,
        rate_hz=rate,
        x=rng.integers(-2048, 2048, n),
        y=rng.integers(-2048, 2048, n),
        z=rng.integers(-2048, 2048, n),
    )
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.npz"
        save_traces(path, {3: trace})
        back = load_traces(path)[3]
    assert np.array_equal(back.x, trace.x)
    assert np.array_equal(back.y, trace.y)
    assert np.array_equal(back.z, trace.z)
    assert back.t0 == trace.t0
    assert back.rate_hz == trace.rate_hz

"""Property-based tests: sensor conversions and trace persistence."""

from __future__ import annotations

import numpy as np
import pytest
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


def _trace(n: int, t0: float, rate: float, horizontal: bool) -> AccelTrace:
    rng = np.random.default_rng(n)
    x, y, z = (rng.integers(-2048, 2048, n) for _ in range(3))
    if not horizontal:
        x = y = None
    return AccelTrace(t0=t0, rate_hz=rate, x=x, y=y, z=z)


def _same_axis(got, want) -> bool:
    """Both absent, or equal counts."""
    if want is None:
        return got is None
    return got is not None and np.array_equal(got, want)


@given(
    st.integers(2, 400),
    st.floats(0.0, 1e4, allow_nan=False),
    st.sampled_from([10.0, 50.0, 100.0]),
    st.booleans(),
)
@settings(max_examples=30)
def test_trace_npz_roundtrip(n, t0, rate, horizontal):
    import tempfile
    from pathlib import Path

    from repro.scenario.trace_io import load_traces, save_traces

    trace = _trace(n, t0, rate, horizontal)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.npz"
        save_traces(path, {3: trace})
        back = load_traces(path)[3]
    assert _same_axis(back.x, trace.x)
    assert _same_axis(back.y, trace.y)
    assert np.array_equal(back.z, trace.z)
    assert back.t0 == trace.t0
    assert back.rate_hz == trace.rate_hz


@given(
    st.integers(2, 400),
    st.floats(0.0, 1e4, allow_nan=False),
    st.sampled_from([10.0, 50.0, 100.0]),
    st.booleans(),
)
@settings(max_examples=30)
def test_trace_csv_roundtrip(n, t0, rate, horizontal):
    import tempfile
    from pathlib import Path

    from repro.scenario.trace_io import export_csv, import_csv

    trace = _trace(n, t0, rate, horizontal)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.csv"
        export_csv(path, trace)
        back = import_csv(path, rate_hz=rate)
    assert _same_axis(back.x, trace.x)
    assert _same_axis(back.y, trace.y)
    assert np.array_equal(back.z, trace.z)
    assert back.t0 == pytest.approx(trace.t0, abs=1e-6)
    assert back.rate_hz == rate

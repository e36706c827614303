"""Property-based tests for the DSP toolbox."""

from __future__ import annotations

import numpy as np
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.dsp.features import smooth_spectrum, spectral_entropy
from repro.dsp.filters import moving_average
from repro.dsp.stft import stft_segments
from repro.dsp.window import hann

_signals = hnp.arrays(
    dtype=np.float64,
    shape=st.integers(8, 400),
    elements=st.floats(-1e6, 1e6, allow_nan=False, width=64),
)


@given(_signals, st.integers(1, 50))
def test_moving_average_preserves_length(x, width):
    assert moving_average(x, width).shape == x.shape


@given(_signals, st.integers(1, 50))
def test_moving_average_bounded_by_extremes(x, width):
    out = moving_average(x, width)
    # The cumulative-sum implementation cancels catastrophically when
    # the data spans many orders of magnitude, so the tolerance scales
    # with the data range rather than the extremes alone.
    tol = 1e-9 * (float(np.abs(x).max()) + 1.0)
    assert out.min() >= x.min() - tol
    assert out.max() <= x.max() + tol


@given(st.floats(-1e3, 1e3, allow_nan=False), st.integers(1, 50))
def test_moving_average_fixed_point_on_constants(value, width):
    x = np.full(100, value)
    assert np.allclose(moving_average(x, width), value)


@given(_signals, st.integers(2, 16), st.integers(1, 16))
def test_stft_segments_rows_are_views_of_signal(x, segment, hop):
    if x.size < segment:
        return
    frames = stft_segments(x, segment, hop)
    for i in range(frames.shape[0]):
        start = i * hop
        assert np.array_equal(frames[i], x[start : start + segment])


@given(
    hnp.arrays(
        dtype=np.float64,
        shape=st.integers(3, 200),
        elements=st.floats(0.0, 1e6, allow_nan=False, width=64),
    ),
    st.integers(1, 31),
)
def test_smooth_spectrum_non_negative(p, width):
    out = smooth_spectrum(p, width)
    assert np.all(out >= -1e-9)
    assert out.shape == p.shape


@given(
    hnp.arrays(
        dtype=np.float64,
        shape=st.integers(1, 100),
        elements=st.floats(0.0, 1e6, allow_nan=False, width=64),
    )
)
def test_entropy_bounded_by_log_n(p):
    h = spectral_entropy(p)
    assert 0.0 <= h <= np.log(max(p.size, 1)) + 1e-9


@given(st.integers(1, 256))
def test_windows_bounded(n):
    w = hann(n)
    assert w.shape == (n,)
    assert np.all(w >= 0.0)
    assert np.all(w <= 1.0 + 1e-12)

"""Tests for the Sec. IV-B signal conditioning chain."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.constants import (
    ACCEL_COUNTS_PER_G,
    NODE_LOWPASS_CUTOFF_HZ,
    SAMPLE_RATE_HZ,
)
from repro.dsp.filters import butter_lowpass
from repro.errors import ConfigurationError, SignalLengthError
from repro.detection import preprocess
from repro.detection.preprocess import (
    PreprocessConfig,
    StreamingPreprocessor,
    preprocess_z_counts,
    preprocess_z_counts_batch,
)

RATE = SAMPLE_RATE_HZ
KINDS = ("butter", "butter-causal")
#: The zero-phase filter's edge pad: it needs strictly more samples.
PAD = 15


def _counts(signal_g: np.ndarray) -> np.ndarray:
    """Counts for a signal expressed in g around the 1 g offset."""
    return np.rint((1.0 + signal_g) * ACCEL_COUNTS_PER_G).astype(np.int64)


def _lowpass(z: np.ndarray) -> np.ndarray:
    return butter_lowpass(z, NODE_LOWPASS_CUTOFF_HZ, RATE)


def test_output_non_negative_by_default():
    rng = np.random.default_rng(0)
    z = _counts(0.1 * rng.normal(size=2000))
    out = preprocess_z_counts(z, RATE)
    assert np.all(out >= 0.0)


def test_gravity_removed():
    z = np.full(2000, int(ACCEL_COUNTS_PER_G))
    out = preprocess_z_counts(z, RATE)
    assert np.abs(out).max() < 1.0


def test_rectification_folds_negative_excursions():
    t = np.arange(0, 40, 0.02)
    z = _counts(0.2 * np.sin(2 * np.pi * 0.4 * t))
    rectified = preprocess_z_counts(z, RATE)
    signed = _lowpass(z) - ACCEL_COUNTS_PER_G
    assert signed.min() < -50  # below-1g excursions exist
    assert np.allclose(rectified, np.abs(signed), atol=1e-9)


def test_high_frequency_removed():
    t = np.arange(0, 40, 0.02)
    z = _counts(0.05 * np.sin(2 * np.pi * 0.4 * t) + 0.3 * np.sin(2 * np.pi * 8.0 * t))
    # The chain is the rectified low-pass of the gravity-free counts.
    signed = _lowpass(z - ACCEL_COUNTS_PER_G)
    assert np.allclose(preprocess_z_counts(z, RATE), np.abs(signed), atol=1e-6)
    spec = np.abs(np.fft.rfft(signed))
    f = np.fft.rfftfreq(signed.size, 0.02)
    assert spec[np.argmin(np.abs(f - 8.0))] < 0.02 * spec[np.argmin(np.abs(f - 0.4))]


def test_causal_filter_delays():
    # The forward-only Butterworth lags a bump that the zero-phase
    # filter keeps centred (tests/dsp/test_filters.py).  Its zero
    # initial state meets the 1 g offset as a step, so the first
    # seconds are a startup transient.
    t = np.arange(0, 60, 1 / RATE)
    z = _counts(0.2 * np.exp(-0.5 * ((t - 30) / 2.0) ** 2))
    out = preprocess_z_counts(z, RATE, PreprocessConfig(filter_kind="butter-causal"))
    settled = t >= 10.0
    assert t[settled][np.argmax(out[settled])] > 30.0


def test_config_validation():
    for kind in KINDS:
        assert PreprocessConfig(filter_kind=kind).filter_kind == kind
    with pytest.raises(ConfigurationError):
        PreprocessConfig(filter_kind="fir")


class TestBatchedPreprocess:
    """Batched and streaming variants must match per-row bit for bit."""

    @pytest.mark.parametrize("kind", KINDS)
    def test_batch_bit_identical_to_per_row(self, kind):
        rng = np.random.default_rng(7)
        Z = np.stack(
            [_counts(0.1 * rng.normal(size=3000)) for _ in range(5)]
        )
        cfg = PreprocessConfig(filter_kind=kind)
        batch = preprocess_z_counts_batch(Z, RATE, cfg)
        for i in range(5):
            row = preprocess_z_counts(Z[i], RATE, cfg)
            assert np.array_equal(batch[i], row)

    @pytest.mark.parametrize("kind", KINDS)
    def test_batch_holds_one_row_block(self, kind):
        # A 6x5 fleet's 400 s record is conditioned a row block at a
        # time: the traced peak stays within 2.25x of the output, where
        # converting and filtering the whole matrix at once reaches 4x.
        rng = np.random.default_rng(5)
        Z = _counts(0.1 * rng.standard_normal((30, 20_000)))
        tracemalloc.start()
        try:
            out = preprocess_z_counts_batch(Z, RATE, PreprocessConfig(kind))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2.25 * out.nbytes

    @pytest.mark.parametrize("rows", [0, 1, 40])
    def test_short_record_raises_for_any_row_count(self, rows):
        with pytest.raises(SignalLengthError):
            preprocess_z_counts_batch(np.full((rows, PAD), 1024), RATE)

    def test_batch_rejects_1d(self):
        with pytest.raises(ConfigurationError):
            preprocess_z_counts_batch(np.zeros(100), RATE)

    @pytest.mark.parametrize("kind", ["butter-causal"])
    @pytest.mark.parametrize("chunk", [13, 100, 777])
    def test_streaming_bit_identical_to_batch(self, kind, chunk):
        rng = np.random.default_rng(11)
        Z = np.stack(
            [_counts(0.1 * rng.normal(size=2501)) for _ in range(4)]
        )
        want = preprocess_z_counts_batch(Z, RATE, PreprocessConfig(filter_kind=kind))
        stream = StreamingPreprocessor(4, RATE)
        got = np.concatenate(
            [
                stream.push(Z[:, lo : lo + chunk])
                for lo in range(0, Z.shape[1], chunk)
            ],
            axis=1,
        )
        assert np.array_equal(got, want)

    def test_invalid_filter_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            PreprocessConfig(filter_kind="fir")

    def test_butter_causal_differs_from_zero_phase(self):
        rng = np.random.default_rng(3)
        z = _counts(0.1 * rng.normal(size=2000))
        causal = preprocess_z_counts(
            z, RATE, PreprocessConfig(filter_kind="butter-causal")
        )
        offline = preprocess_z_counts(
            z, RATE, PreprocessConfig(filter_kind="butter")
        )
        assert not np.array_equal(causal, offline)


@st.composite
def _records(draw):
    """Raw counts around 1 g and the cut points of a chunked feed."""
    rows = draw(st.integers(1, 5))
    n = draw(st.integers(1, 3000))
    spread = draw(st.integers(0, 400))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    z = np.rint(ACCEL_COUNTS_PER_G + spread * rng.standard_normal((rows, n)))
    cuts = draw(st.sets(st.integers(1, n - 1), max_size=6) if n > 1 else st.just(set()))
    return z.astype(np.int64), sorted(cuts)


@settings(deadline=None)
@given(_records(), st.sampled_from(KINDS), st.integers(1, 6))
@example((np.full((2, PAD), 1024), [7]), "butter", 1)
@example((np.full((2, PAD + 1), 1024), [7]), "butter", 1)
def test_entry_points_agree_on_generated_records(record, kind, block_rows):
    """One node, a fleet in row blocks of any size, the whole matrix at
    once and a chunked stream condition alike."""
    z, cuts = record
    cfg = PreprocessConfig(filter_kind=kind)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(
            preprocess, "CONDITION_BLOCK_BYTES", block_rows * 8 * z.shape[1]
        )
        if kind == "butter" and z.shape[1] <= PAD:
            with pytest.raises(SignalLengthError):
                preprocess_z_counts_batch(z, RATE, cfg)
            with pytest.raises(SignalLengthError):
                preprocess_z_counts(z[0], RATE, cfg)
            return
        batch = preprocess_z_counts_batch(z, RATE, cfg)
    assert batch.shape == z.shape
    assert np.all(batch >= 0.0)
    for row, want in zip(z, batch):
        assert np.array_equal(preprocess_z_counts(row, RATE, cfg), want)
    if kind == "butter":
        assert np.array_equal(np.abs(_lowpass(z) - ACCEL_COUNTS_PER_G), batch)
    else:
        whole = StreamingPreprocessor(z.shape[0], RATE).push(z)
        stream = StreamingPreprocessor(z.shape[0], RATE)
        chunks = [stream.push(part) for part in np.split(z, cuts, axis=1)]
        assert np.array_equal(whole, batch)
        assert np.array_equal(np.concatenate(chunks, axis=1), batch)

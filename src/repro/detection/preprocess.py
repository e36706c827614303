"""Node-level signal conditioning (paper Sec. IV-B).

The node "filters out the frequency above 1Hz"; then, "because the
z-accelerometer signal fluctuates around 1g, we minus this value and
let the signal fluctuate around zero.  Before computing the average and
standard deviation, we have the absolute value of those signal below
zero" — i.e. the gravity-removed signal is full-wave rectified, because
disturbances push the buoy both above and below 1 g.

The chain's constants are the paper's: a 1 Hz cutoff
(:data:`~repro.constants.NODE_LOWPASS_CUTOFF_HZ`) and a 1 g offset of
:data:`~repro.constants.ACCEL_COUNTS_PER_G` counts.  The sample rate is
the detector's (:attr:`NodeDetectorConfig.rate_hz
<repro.detection.node_detector.NodeDetectorConfig.rate_hz>`), passed
to every entry point.  Two filter kinds:

- ``"butter"`` — zero-phase Butterworth (the offline analysis path);
  needs the whole record, so it cannot feed the streaming pipeline;
- ``"butter-causal"`` — the same Butterworth run forward only, exactly
  chunkable by carrying the recursion state.  Offline, each row block
  of a whole record is one chunk of a fresh stream, so offline and
  streaming conditioning agree by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import signal as sp_signal

from repro.constants import ACCEL_COUNTS_PER_G, NODE_LOWPASS_CUTOFF_HZ
from repro.dsp.filters import butter_lowpass, butter_sos
from repro.errors import ConfigurationError

#: Filter kinds usable by the chunked streaming pipeline (zero-phase
#: Butterworth is global/anti-causal and therefore excluded).
STREAMABLE_FILTER_KINDS = ("butter-causal",)

#: Byte budget of one row block of :func:`preprocess_z_counts_batch`:
#: the chain converts, filters and rectifies as many rows at a time as
#: fit this many bytes of float64 samples (6 rows of a 400 s, 50 Hz
#: record), so the filter's temporaries stay a few blocks whatever the
#: fleet.  Blocks this size also run faster than the whole matrix,
#: whose temporaries leave the cache (DESIGN.md §10).
CONDITION_BLOCK_BYTES = 1 << 20


@dataclass(frozen=True)
class PreprocessConfig:
    """The low-pass of the Sec. IV-B conditioning chain."""

    #: "butter" = zero-phase Butterworth (analysis path);
    #: "butter-causal" = single-pass Butterworth (streamable).
    filter_kind: str = "butter"

    def __post_init__(self) -> None:
        if self.filter_kind not in ("butter", *STREAMABLE_FILTER_KINDS):
            raise ConfigurationError(
                "filter_kind must be 'butter' or 'butter-causal', "
                f"got {self.filter_kind!r}"
            )


def _gravity_free_magnitude(filtered: np.ndarray) -> np.ndarray:
    """The chain's tail, in place: subtract 1 g, then full-wave rectify."""
    filtered -= ACCEL_COUNTS_PER_G
    return np.abs(filtered, out=filtered)


def _condition(
    z: np.ndarray, rate_hz: float, config: PreprocessConfig | None
) -> np.ndarray:
    """The chain on a ``(rows, samples)`` matrix of raw counts.

    Rows are conditioned a block at a time (:data:`CONDITION_BLOCK_BYTES`)
    into one float64 output; both filters treat every row on its own,
    so each row equals the one-row chain bit for bit.
    """
    cfg = config if config is not None else PreprocessConfig()
    rows, samples = z.shape
    out = np.empty((rows, samples))
    step = max(CONDITION_BLOCK_BYTES // max(8 * samples, 1), 1)
    # One block even for no rows, so a record too short to filter
    # raises SignalLengthError whatever the row count.
    for lo in range(0, max(rows, 1), step):
        block = out[lo : lo + step]
        block[...] = z[lo : lo + step]
        if cfg.filter_kind == "butter":
            block[...] = butter_lowpass(block, NODE_LOWPASS_CUTOFF_HZ, rate_hz)
            _gravity_free_magnitude(block)
        else:
            # A causal row block is one chunk of a fresh stream.
            block[...] = StreamingPreprocessor(len(block), rate_hz).push(block)
    return out


def _counts(z_counts: np.ndarray, ndim: int, shape: str) -> np.ndarray:
    """Raw counts, rejecting any shape but ``ndim`` axes."""
    z = np.asarray(z_counts)
    if z.ndim != ndim:
        raise ConfigurationError(f"expected {shape}, got shape {z.shape}")
    return z


def preprocess_z_counts(
    z_counts: np.ndarray,
    rate_hz: float,
    config: PreprocessConfig | None = None,
) -> np.ndarray:
    """Full Sec. IV-B chain on one node's raw z counts sampled at ``rate_hz``.

    Returns the non-negative sample stream ``a_i`` that eqs. 4-8
    operate on; bit-identical to that node's row of
    :func:`preprocess_z_counts_batch`.
    """
    z = _counts(z_counts, 1, "1-D samples")
    return _condition(z[None], rate_hz, config)[0]


def preprocess_z_counts_batch(
    z_counts: np.ndarray,
    rate_hz: float,
    config: PreprocessConfig | None = None,
) -> np.ndarray:
    """Whole-fleet Sec. IV-B chain over ``(nodes, samples)`` raw counts.

    One vectorised pass; bit-identical to running
    :func:`preprocess_z_counts` on every row separately.
    """
    return _condition(
        _counts(z_counts, 2, "2-D (nodes, samples)"), rate_hz, config
    )


class StreamingPreprocessor:
    """Chunked Sec. IV-B chain: the causal Butterworth with carried state.

    ``sosfilt`` with a carried ``zi`` is exactly the monolithic causal
    filter — the recursion state is the only memory the filter has —
    so feeding a fleet's raw z counts chunk by chunk through
    :meth:`push` reproduces the ``"butter-causal"``
    :func:`preprocess_z_counts_batch` of the concatenated stream bit
    for bit.
    """

    def __init__(self, n_rows: int, rate_hz: float) -> None:
        self._sos = butter_sos(NODE_LOWPASS_CUTOFF_HZ, rate_hz)
        self._zi = np.zeros((self._sos.shape[0], n_rows, 2))

    def push(self, z_chunk: np.ndarray) -> np.ndarray:
        """Condition one ``(rows, chunk)`` block of raw z counts."""
        x = np.asarray(z_chunk, dtype=float)
        n_rows = self._zi.shape[1]
        if x.ndim != 2 or x.shape[0] != n_rows:
            raise ConfigurationError(
                f"chunk must be ({n_rows}, samples), got {x.shape}"
            )
        # sosfilt raises on an empty axis; an empty chunk carries no state.
        if not x.shape[1]:
            return np.empty(x.shape)
        y, self._zi = sp_signal.sosfilt(self._sos, x, axis=-1, zi=self._zi)
        return _gravity_free_magnitude(y)

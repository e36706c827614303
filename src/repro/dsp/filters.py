"""Time-domain filtering used by node-level detection (paper Sec. IV-B).

"After deployment of the node, the node first samples for a period of
time, then filters out the frequency above 1Hz" — implemented as a
Butterworth low-pass: :func:`butter_lowpass` runs it zero-phase over a
whole record, and :class:`~repro.detection.preprocess.StreamingPreprocessor`
runs the same :func:`butter_sos` design causally with carried state.
:func:`moving_average` is the classifier's envelope smoother.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from scipy import signal as sp_signal

from repro.constants import NODE_LOWPASS_CUTOFF_HZ, SAMPLE_RATE_HZ
from repro.errors import ConfigurationError, SignalLengthError


def butter_sos(
    cutoff_hz: float = NODE_LOWPASS_CUTOFF_HZ,
    rate_hz: float = SAMPLE_RATE_HZ,
    order: int = 4,
) -> np.ndarray:
    """Second-order-section coefficients of the node low-pass.

    Each ``(cutoff, rate, order)`` is designed once; every call returns
    a fresh copy, because ``sosfilt`` rejects a read-only ``sos``.
    """
    if not 0 < cutoff_hz < rate_hz / 2:
        raise ConfigurationError(
            f"cutoff {cutoff_hz} Hz outside (0, Nyquist={rate_hz / 2}) range"
        )
    return _butter_design(cutoff_hz, rate_hz, order).copy()


@lru_cache(maxsize=16)
def _butter_design(cutoff_hz: float, rate_hz: float, order: int) -> np.ndarray:
    sos = sp_signal.butter(
        order, cutoff_hz, btype="low", fs=rate_hz, output="sos"
    )
    sos.flags.writeable = False
    return sos


def butter_lowpass(
    x: np.ndarray,
    cutoff_hz: float = NODE_LOWPASS_CUTOFF_HZ,
    rate_hz: float = SAMPLE_RATE_HZ,
    order: int = 4,
) -> np.ndarray:
    """Zero-phase Butterworth low-pass along the last axis.

    The filter runs forward and backward (``sosfiltfilt``), preserving
    wave-train onset times — important because the detector reports
    the onset timestamp to the cluster head.  Each row of a
    multi-dimensional input is filtered on its own, bit-identical to
    filtering that row alone.  ``sosfiltfilt`` pads both ends of the
    last axis and needs more samples than its pad; a shorter record
    raises :class:`SignalLengthError`.
    """
    x = np.asarray(x, dtype=float)
    sos = butter_sos(cutoff_hz, rate_hz, order)
    # scipy's default pad: three times the taps, one fewer per pair of
    # zero b2/a2 coefficients.
    taps = 2 * len(sos) + 1 - min((sos[:, 2] == 0).sum(), (sos[:, 5] == 0).sum())
    n = x.shape[-1] if x.ndim else x.size
    if n <= 3 * taps:
        raise SignalLengthError(
            f"signal too short ({n}) for order-{order} zero-phase filtering: "
            f"needs more than {3 * taps} samples"
        )
    return sp_signal.sosfiltfilt(sos, x, axis=-1)


def moving_average(x: np.ndarray, width: int) -> np.ndarray:
    """Causal moving-average FIR low-pass of ``width`` samples.

    The first ``width - 1`` outputs average over the shorter available
    history, so the output has no startup transient toward zero and the
    same length as the input.
    """
    x = np.asarray(x, dtype=float)
    if width < 1:
        raise ConfigurationError(f"width must be >= 1, got {width}")
    if x.size == 0:
        return x.copy()
    csum = np.cumsum(x)
    out = np.empty_like(x)
    if x.size <= width:
        out[:] = csum / np.arange(1, x.size + 1)
        return out
    out[:width] = csum[:width] / np.arange(1, width + 1)
    out[width:] = (csum[width:] - csum[:-width]) / width
    return out

"""The Hann window the STFT and the power spectrum taper with.

Implemented directly (rather than via :mod:`scipy.signal.windows`) so
the spectra used in the reproduction are self-contained and their
window is exactly documented.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError


def hann(n: int) -> np.ndarray:
    """Symmetric Hann window ``0.5 (1 - cos(2 pi k / (n-1)))``: both ends 0."""
    if n < 1:
        raise ConfigurationError(f"window length must be >= 1, got {n}")
    if n == 1:
        return np.ones(1)
    k = np.arange(n)
    return 0.5 * (1.0 - np.cos(2.0 * np.pi * k / (n - 1)))

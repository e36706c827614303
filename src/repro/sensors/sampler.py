"""Fixed-rate sampling of continuous signals.

Bridges the physics layer (functions of continuous time) and the sensor
layer (50 Hz sample streams): builds the sample-instant grid.
"""

from __future__ import annotations

import numpy as np

from repro.constants import SAMPLE_RATE_HZ
from repro.errors import ConfigurationError


class Sampler:
    """Generates sample instants."""

    def __init__(self, rate_hz: float = SAMPLE_RATE_HZ) -> None:
        if rate_hz <= 0:
            raise ConfigurationError(f"rate_hz must be positive, got {rate_hz}")
        self.rate_hz = rate_hz

    def count(self, duration_s: float) -> int:
        """Samples covering a ``duration_s``-second record."""
        if duration_s < 0:
            raise ConfigurationError(
                f"duration must be >= 0, got {duration_s}"
            )
        return int(round(duration_s * self.rate_hz))

    def instants(self, t0: float, duration_s: float) -> np.ndarray:
        """Sample timestamps covering ``[t0, t0 + duration_s)``.

        Sample ``k`` is taken at ``t0 + k / rate_hz``.
        """
        return t0 + np.arange(self.count(duration_s)) / self.rate_hz

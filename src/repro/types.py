"""Shared value types used across the SID reproduction packages."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np


@dataclass(frozen=True)
class Position:
    """A point on the (flat) sea surface, metres east (x) / north (y)."""

    x: float
    y: float

    def distance_to(self, other: "Position") -> float:
        """Euclidean distance to ``other`` in metres."""
        return math.hypot(self.x - other.x, self.y - other.y)

    def offset(self, dx: float, dy: float) -> "Position":
        """Return a new position translated by ``(dx, dy)``."""
        return Position(self.x + dx, self.y + dy)

    def __iter__(self) -> Iterator[float]:
        yield self.x
        yield self.y


@dataclass(frozen=True)
class TimeWindow:
    """A half-open time interval ``[start, end)`` in seconds."""

    start: float
    end: float

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise ValueError(
                f"TimeWindow end ({self.end}) precedes start ({self.start})"
            )

    @property
    def duration(self) -> float:
        """Window length in seconds."""
        return self.end - self.start

    def contains(self, t: float) -> bool:
        """True when ``start <= t < end``."""
        return self.start <= t < self.end


@dataclass
class AccelTrace:
    """A fixed-rate accelerometer record in raw ADC counts.

    This mirrors what the paper's motes log: integer counts at 50 Hz,
    with gravity putting the resting z-axis near +1 g (~1024 counts for
    the 12-bit, +/-2 g LIS3L02DQ).  Detection reads only z, so ``x``
    and ``y`` are ``None`` unless the horizontal axes were recorded
    (both or neither).
    """

    t0: float
    rate_hz: float
    x: Optional[np.ndarray]
    y: Optional[np.ndarray]
    z: np.ndarray

    def __post_init__(self) -> None:
        if self.rate_hz <= 0:
            raise ValueError(f"rate_hz must be positive, got {self.rate_hz}")
        if (self.x is None) != (self.y is None):
            raise ValueError("x and y must be given together")
        n = len(self.z)
        if any(len(a) != n for a in (self.x, self.y) if a is not None):
            raise ValueError("axis arrays must share one length")

    def __len__(self) -> int:
        return len(self.z)

    @property
    def duration(self) -> float:
        """Trace duration in seconds."""
        return len(self) / self.rate_hz

    @property
    def times(self) -> np.ndarray:
        """Sample timestamps in seconds."""
        return self.t0 + np.arange(len(self)) / self.rate_hz

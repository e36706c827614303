"""Injectable wall clocks for the telemetry layer.

Simulation state must stay a pure function of the scenario seed
(DESIGN.md §11), so telemetry never feeds wall time *into* a run — it
only stamps events *about* the run.  All wall-time reads go through a
single injectable callable: the default is the monotonic
``time.perf_counter`` (DET001-legal: it measures the run, never the
simulation), and tests substitute a :class:`ManualClock` to make trace
output byte-reproducible.
"""

from __future__ import annotations

import time
from typing import Callable

from repro.errors import ConfigurationError

#: A wall clock: a zero-argument callable returning seconds as float.
Clock = Callable[[], float]


def perf_clock() -> float:
    """The default telemetry clock (monotonic, run-time only)."""
    return time.perf_counter()


class ManualClock:
    """A deterministic clock advanced explicitly by the caller.

    Each read returns the current value; :meth:`advance` moves it
    forward.  With ``tick_s`` set, every read auto-advances by that
    amount *after* returning, which gives spans a stable nonzero
    duration without any per-test bookkeeping.
    """

    def __init__(self, start_s: float = 0.0, tick_s: float = 0.0) -> None:
        if tick_s < 0:
            raise ConfigurationError(f"tick_s must be >= 0, got {tick_s}")
        self._now = float(start_s)
        self._tick = float(tick_s)

    def __call__(self) -> float:
        now = self._now
        self._now += self._tick
        return now

    def advance(self, dt_s: float) -> None:
        """Move the clock forward by ``dt_s`` seconds."""
        if dt_s < 0:
            raise ConfigurationError(f"dt_s must be >= 0, got {dt_s}")
        self._now += dt_s

"""Host-speed-normalised timing.

The host this benchmark runs on flips between a fast and a slow state
(about 1.5x apart) that last from one to tens of seconds, so raw
seconds do not repeat.  :class:`SpeedClock` measures how fast the host
runs *right now* with a fixed micro-probe, and converts raw
``perf_counter`` readings into normalised seconds: every stretch of
work is scaled by ``REF_PROBE_S / probe``, where ``probe`` is the mean
of the two probe readings that bracket the stretch.

Probes are taken in two ways:

- :meth:`SpeedClock.mark` runs a block of micro-probes and is called
  before and after every cell and every set-up step;
- while the clock is started, a ``SIGALRM`` interval timer runs the
  micro-probe twice every ``TICK_S`` seconds and keeps the second, warm
  reading, splitting long spans into short stretches that each get
  their own bracket.

Probe time itself is excluded from every span.  The probe uses no
``repro`` code and allocates no arrays.  It mixes, in about equal
parts of its time, the three kinds of work a scenario cell does: an
interpreter loop, small-array ufunc calls, and a vectorised ``sin``.
The slow state hits them differently (about 1.6x, 2x and 1.6x).  On
logs of repeated identical cells of every kind, the equal-time mix
kept the per-cell IQR at 4-10% against 19-34% raw, and no re-weighting
did clearly better: cell kinds differ in how hard the slow state hits
them, in opposite directions.
"""

from __future__ import annotations

import signal
import time
from typing import Callable

import numpy as np

#: Micro-probe time on the fast host state [s]; normalised seconds are
#: seconds on a host whose probe reads exactly this.
REF_PROBE_S = 1.6e-4
#: Micro-probes per bracket probe (:meth:`SpeedClock.mark`).
MARK_REPS = 24
#: Interval of the in-span probe timer [s].
TICK_S = 0.02

_clock = time.perf_counter


class MicroProbe:
    """One fixed unit of mixed work; calling it returns its duration."""

    LOOPS = 1000
    UFUNC_CALLS = 40
    WAVE_SAMPLES = 8192

    def __init__(self) -> None:
        self._small = np.linspace(0.0, 1.0, 64)
        self._small_out = np.empty_like(self._small)
        self._wave = np.linspace(0.0, 100.0, self.WAVE_SAMPLES)
        self._wave_out = np.empty_like(self._wave)

    def __call__(self) -> float:
        small, small_out = self._small, self._small_out
        t0 = _clock()
        acc = 0
        for i in range(self.LOOPS):
            acc += i & 7
        for _ in range(self.UFUNC_CALLS):
            np.multiply(small, 1.0001, out=small_out)
        np.sin(self._wave, out=self._wave_out)
        return _clock() - t0


class ThreadGuardError(RuntimeError):
    """The process runs more than one thread."""


def thread_count(status_path: str = "/proc/self/status") -> int:
    """Threads of this process, from the kernel's status file."""
    with open(status_path) as fh:
        for line in fh:
            if line.startswith("Threads:"):
                return int(line.split()[1])
    raise ThreadGuardError(f"no Threads: line in {status_path}")


def check_single_thread(status_path: str = "/proc/self/status") -> None:
    """Fail when another thread exists: it would slow the probe and
    make every normalised span look faster than it was."""
    n = thread_count(status_path)
    if n != 1:
        raise ThreadGuardError(f"expected 1 thread, found {n}")


class SpeedClock:
    """Probe log plus the raw-to-normalised time map built from it.

    Each probe is a point ``(start, duration, speed)``: ``duration`` is
    excluded from normalised time and ``speed`` is the per-micro-probe
    time.  Normalised time between consecutive points ``j`` and ``j+1``
    runs at ``ref / mean(speed_j, speed_j+1)``.
    """

    def __init__(
        self,
        ref_s: float = REF_PROBE_S,
        thread_check: Callable[[], None] = check_single_thread,
    ) -> None:
        self.ref_s = ref_s
        self._probe = MicroProbe()
        self._thread_check = thread_check
        # Preallocated: a log that grew by reallocation at timer-driven
        # moments would fragment the heap differently on every run and
        # make peak RSS jump.
        self._log = np.zeros((3, 1 << 17))
        self._n = 0
        self._ticking = False
        #: Set while a probe runs, so a timer tick never nests in one.
        self._busy = False

    # -- recording -----------------------------------------------------
    def add_point(self, start: float, duration: float, speed: float) -> None:
        """Record one probe (also used by the self-tests)."""
        n = self._n
        if n == self._log.shape[1]:
            raise RuntimeError("probe log full")
        self._log[0, n] = start
        self._log[1, n] = duration
        self._log[2, n] = speed
        self._n = n + 1

    def mark(self) -> None:
        """Bracket probe, after checking that no other thread runs."""
        self._thread_check()
        self._busy = True
        try:
            t0 = _clock()
            total = 0.0
            for _ in range(MARK_REPS):
                total += self._probe()
            self.add_point(t0, _clock() - t0, total / MARK_REPS)
        finally:
            self._busy = False

    def _tick(self, signum: int, frame: object) -> None:
        if self._busy:
            return
        self._busy = True
        try:
            t0 = _clock()
            # The first run refills the caches the measured code evicted;
            # only the second, warm one measures the host.
            self._probe()
            speed = self._probe()
            self.add_point(t0, _clock() - t0, speed)
        finally:
            self._busy = False

    def start(self) -> None:
        """Arm the in-span probe timer."""
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        self._ticking = True

    def stop(self) -> None:
        """Disarm the probe timer."""
        if self._ticking:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
            self._ticking = False

    # -- conversion ----------------------------------------------------
    def probe_seconds(self, a: float, b: float) -> float:
        """Raw probe time spent inside ``[a, b]``."""
        start, dur, _ = self._log[:, : self._n]
        inside = (start >= a) & (start + dur <= b)
        return float(dur[inside].sum())

    def normalise(self, times: np.ndarray) -> np.ndarray:
        """Normalised clock readings for raw ``perf_counter`` times.

        Every time must lie between the first and the last probe, so
        that a probe brackets it on each side.
        """
        start, dur, speed = self._log[:, : self._n]
        if start.size < 2:
            raise ValueError("need at least two probes")
        if np.any(np.diff(start) < 0):
            raise ValueError("probe log is out of order")
        end = start + dur
        scale = self.ref_s / (0.5 * (speed[:-1] + speed[1:]))
        seg = np.maximum(start[1:] - end[:-1], 0.0)
        cum = np.concatenate(([0.0], np.cumsum(seg * scale)))
        t = np.asarray(times, dtype=float)
        if np.any(t < start[0]) or np.any(t > start[-1]):
            raise ValueError("time outside the probed range")
        j = np.clip(np.searchsorted(start, t, side="right") - 1, 0, start.size - 2)
        return cum[j] + np.clip(t - end[j], 0.0, None) * scale[j]

    def span(self, a: float, b: float) -> float:
        """Normalised length of the raw interval ``[a, b]``."""
        na, nb = self.normalise(np.array([a, b]))
        return float(nb - na)

"""The finite wave train a ship wake inflicts on a fixed point.

At a stationary buoy the passing wake is felt as a short, enveloped
packet of oscillations: the cusp-locus front arrives at ``arrival_time``
(from :class:`repro.physics.kelvin.KelvinWake`), the packet lasts
``duration`` seconds (2-3 s at the paper's 25 m scale, Sec. V-A) and
carries the divergent-wave period.  Deep-water dispersion sorts the
packet — longer waves lead — which we model as a mild downward frequency
chirp across the train.

The elevation model is

``eta(tau) = A * env(tau) * cos(w tau + 0.5 chi tau^2)``

with a raised-cosine (Hann) envelope on ``tau in [0, duration]``.  The
vertical acceleration is the exact second derivative (product rule on
envelope and chirped carrier), so a numerically differentiated elevation
matches it — one of the property tests asserts exactly that.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import numpy.typing as npt

from repro.errors import ConfigurationError
from repro.physics.kelvin import KelvinWake
from repro.types import Position

#: Frequency sweep over a whole wake packet, as a fraction of its
#: carrier frequency (:meth:`WakeTrain.from_wake`).
WAKE_CHIRP_FRACTION = -0.08


@dataclass(frozen=True)
class WakeTrain:
    """One enveloped wave packet at a fixed observation point.

    Parameters
    ----------
    arrival_time:
        Time the packet front reaches the point [s].
    amplitude:
        Peak surface amplitude of the packet [m] (half the wave height).
    period:
        Carrier period at the packet centre [s].
    duration:
        Packet length [s].
    chirp:
        Frequency sweep rate [Hz/s]; negative values make later waves
        shorter-period, the deep-water dispersion signature.  The default
        of 0 disables the sweep.
    """

    arrival_time: float
    amplitude: float
    period: float
    duration: float
    chirp: float = 0.0

    def __post_init__(self) -> None:
        if self.amplitude < 0:
            raise ConfigurationError(f"amplitude must be >= 0, got {self.amplitude}")
        if self.period <= 0:
            raise ConfigurationError(f"period must be positive, got {self.period}")
        if self.duration <= 0:
            raise ConfigurationError(
                f"duration must be positive, got {self.duration}"
            )

    @classmethod
    def from_wake(cls, wake: KelvinWake, point: Position) -> "WakeTrain":
        """Build the packet a :class:`KelvinWake` produces at ``point``,
        chirped by :data:`WAKE_CHIRP_FRACTION`."""
        period = wake.wave_period()
        duration = wake.train_duration_at(point)
        carrier_hz = 1.0 / period
        return cls(
            arrival_time=wake.arrival_time(point),
            amplitude=0.5 * wake.wave_height_at(point),
            period=period,
            duration=duration,
            chirp=WAKE_CHIRP_FRACTION * carrier_hz / duration,
        )

    @property
    def carrier_frequency_hz(self) -> float:
        """Centre carrier frequency [Hz]."""
        return 1.0 / self.period

    def _support(
        self, t: npt.ArrayLike
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Zeros shaped like ``t``, the in-packet mask, and ``tau`` on it.

        A packet lasts a few seconds of a record hundreds of seconds
        long, so every term is evaluated on the packet's support only.
        """
        t = np.atleast_1d(np.asarray(t, dtype=float))
        tau = t - self.arrival_time
        inside = (tau >= 0.0) & (tau <= self.duration)
        return np.zeros_like(t), inside, tau[inside]

    def _envelope_terms(
        self, tau: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Hann envelope and its first/second derivatives on the packet."""
        w = 2.0 * math.pi / self.duration
        cos_w = np.cos(w * tau)
        env = 0.5 * (1.0 - cos_w)
        denv = 0.5 * w * np.sin(w * tau)
        ddenv = 0.5 * w * w * cos_w
        return env, denv, ddenv

    def elevation(self, t: npt.ArrayLike) -> np.ndarray:
        """Surface elevation contribution [m] at times ``t``."""
        out, inside, tau = self._support(t)
        env, _, _ = self._envelope_terms(tau)
        omega = 2.0 * math.pi * self.carrier_frequency_hz
        chi = 2.0 * math.pi * self.chirp
        phase = omega * tau + 0.5 * chi * tau * tau
        out[inside] = self.amplitude * env * np.cos(phase)
        return out

    def vertical_acceleration(self, t: npt.ArrayLike) -> np.ndarray:
        """Exact second time derivative of :meth:`elevation` [m/s^2]."""
        out, inside, tau = self._support(t)
        if not tau.size:  # the packet misses this record or chunk
            return out
        env, denv, ddenv = self._envelope_terms(tau)
        omega = 2.0 * math.pi * self.carrier_frequency_hz
        chi = 2.0 * math.pi * self.chirp
        phase = omega * tau + 0.5 * chi * tau * tau
        inst = omega + chi * tau  # instantaneous angular frequency
        cos_p = np.cos(phase)
        sin_p = np.sin(phase)
        second = (
            ddenv * cos_p
            - 2.0 * denv * inst * sin_p
            - env * inst * inst * cos_p
            - env * chi * sin_p
        )
        out[inside] = self.amplitude * second
        return out

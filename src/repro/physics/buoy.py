"""Buoy dynamics: what the hull does between the sea and the sensor.

The paper's motes ride small moored buoys (Fig. 4).  Three effects of
the hull matter to the detector:

1. **Heave**: a small buoy follows the surface, so the vertical specific
   force it feels is gravity plus the surface vertical acceleration.
2. **Tilt**: wave slope and wind rock the buoy, projecting gravity onto
   the x/y axes (the large +/-0.5 g swings of Fig. 5) and slightly
   shrinking the z projection.  This random re-orientation is exactly
   why the paper uses only the z axis (Sec. III-B).
3. **Mooring drift**: the buoy wanders within a ~2 m radius of its
   anchor (Sec. V-B), which later perturbs the speed-estimation
   geometry.

Tilt and drift must be *deterministic functions of time* for a given
seed (the scenario layer evaluates them at arbitrary instants), so both
are realised as small random sums of sinusoids rather than as stateful
random walks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
import numpy.typing as npt

from repro.constants import BUOY_DRIFT_RADIUS_M, GRAVITY
from repro.errors import ConfigurationError
from repro.physics.sinusoids import BLOCK as SINUSOID_BLOCK
from repro.physics.sinusoids import grid_sinusoid_sum
from repro.rng import RandomState, make_rng
from repro.types import Position


@dataclass(frozen=True)
class BuoyMotion:
    """Specific force felt by the mote, in m/s^2.

    ``fx`` and ``fy`` are ``None`` in a z-only motion: the horizontal
    axes are built only where the caller supplies the surface's
    horizontal motion (:meth:`Buoy.specific_force`).
    """

    t: np.ndarray
    fx: Optional[np.ndarray]
    fy: Optional[np.ndarray]
    fz: np.ndarray

    def __post_init__(self) -> None:
        if (self.fx is None) != (self.fy is None):
            raise ConfigurationError("fx and fy must be given together")
        n = len(self.t)
        axes = (self.fx, self.fy, self.fz)
        if any(len(f) != n for f in axes if f is not None):
            raise ConfigurationError("motion arrays must share one length")


#: Sinusoids per row of a :class:`_SinusoidProcess`, and the spread of
#: their frequencies about the row's own (a fraction of it, either way).
PROCESS_TERMS = 6
PERIOD_SPREAD = 0.5

#: Corner frequency [Hz] and Butterworth order of a buoy's mechanical
#: heave response (:meth:`Buoy.heave_gain`).
HEAVE_CORNER_HZ = 0.6
HEAVE_ORDER = 2

#: Byte budget of one sub-block of :meth:`Buoy.specific_force`: one call
#: tilts as many buoys as fit this many bytes (at least one buoy).  A
#: buoy takes its two float64 tilt rows plus the in-block offset factors
#: of its two rows, three (2, 6, min(200, samples)) float64 arrays,
#: which outweigh the rows on grids under 3,600 samples: 4 buoys of a
#: 60 s, 50 Hz chunk, one of a 400 s record.  Larger sub-blocks ran
#: slower (DESIGN.md §10).
TILT_BLOCK_BYTES = 524_288


def _tilt_bytes_per_buoy(n_samples: int) -> int:
    """What one buoy adds to a sub-block on an ``n_samples`` grid: its
    two float64 tilt rows, and the three float64 in-block offset factor
    arrays :func:`~repro.physics.sinusoids.grid_sinusoid_sum` builds
    for them."""
    return 8 * (2 * n_samples + 3 * 2 * PROCESS_TERMS * min(SINUSOID_BLOCK, n_samples))


#: The arrays a :class:`_SinusoidProcess` holds, one row per process row.
_TERMS = ("_freqs", "_phases", "_amps", "_omega", "_cos_weights", "_sin_weights")


class _SinusoidProcess:
    """Zero-mean, band-limited gaussian-ish processes as sums of sines.

    One row per entry of ``periods_s``: each row has RMS ``rms``, its
    own characteristic period and :data:`PROCESS_TERMS` sinusoids, and
    draws their frequencies, phases and amplitudes from ``rng`` after
    the previous row's, as separate one-row processes would.
    Deterministic in ``t`` for a fixed seed.
    Used for tilt and drift; all rows are evaluated on evenly spaced
    sample grids by one
    :func:`~repro.physics.sinusoids.grid_sinusoid_sum` call.
    """

    def __init__(
        self,
        rng: np.random.Generator,
        rms: float,
        periods_s: Sequence[float],
    ) -> None:
        if rms < 0:
            raise ConfigurationError(f"rms must be >= 0, got {rms}")
        freqs: list[np.ndarray] = []
        phases: list[np.ndarray] = []
        amps: list[np.ndarray] = []
        for period_s in periods_s:
            if period_s <= 0:
                raise ConfigurationError(
                    f"period must be positive, got {period_s}"
                )
            spread = PERIOD_SPREAD * rng.uniform(-1.0, 1.0, size=PROCESS_TERMS)
            freqs.append((1.0 / period_s) * (1.0 + spread))
            phases.append(rng.uniform(0.0, 2.0 * math.pi, size=PROCESS_TERMS))
            raw = rng.uniform(0.5, 1.0, size=PROCESS_TERMS)
            # Normalise so each row's sum of sinusoids has the requested RMS.
            amps.append(raw * (rms / math.sqrt(float(np.sum(raw * raw)) / 2.0)))
        self._freqs = np.array(freqs)
        self._phases = np.array(phases)
        self._amps = np.array(amps)
        # sin(w t + p) = sin p cos(w t) + cos p sin(w t)
        self._omega = 2.0 * math.pi * self._freqs
        self._cos_weights = self._amps * np.sin(self._phases)
        self._sin_weights = self._amps * np.cos(self._phases)

    @classmethod
    def stack(cls, processes: Sequence[_SinusoidProcess]) -> _SinusoidProcess:
        """One process holding every row of ``processes``, in turn.

        Each row keeps its own frequencies, so it evaluates bit for bit
        as it does in its own process.
        """
        stacked = cls.__new__(cls)
        for name in _TERMS:
            setattr(
                stacked, name, np.concatenate([getattr(p, name) for p in processes])
            )
        return stacked

    def __call__(self, t: npt.ArrayLike) -> np.ndarray:
        """Every row on the evenly spaced sample grid ``t``; (rows, len(t))."""
        return grid_sinusoid_sum(
            self._omega, t, self._cos_weights, self._sin_weights
        )


class Buoy:
    """One moored buoy carrying a mote.

    Parameters
    ----------
    anchor:
        The assigned (and believed) deployment position.
    drift_radius_m:
        Maximum mooring excursion (paper: ~2 m).
    tilt_rms_deg:
        RMS rocking angle about each horizontal axis.
    tilt_period_s:
        Characteristic rocking period (near the wave period).
    drift_period_s:
        Characteristic mooring-excursion period.
    heave_corner_hz:
        Corner frequency of the mechanical heave response.
    seed:
        Random state making this buoy's motion reproducible.
    """

    def __init__(
        self,
        anchor: Position,
        drift_radius_m: float = BUOY_DRIFT_RADIUS_M,
        tilt_rms_deg: float = 10.0,
        tilt_period_s: float = 4.0,
        drift_period_s: float = 90.0,
        heave_corner_hz: float = HEAVE_CORNER_HZ,
        seed: RandomState = None,
    ) -> None:
        if drift_radius_m < 0:
            raise ConfigurationError(
                f"drift radius must be >= 0, got {drift_radius_m}"
            )
        if tilt_rms_deg < 0:
            raise ConfigurationError(
                f"tilt rms must be >= 0, got {tilt_rms_deg}"
            )
        if heave_corner_hz <= 0:
            raise ConfigurationError(
                f"heave corner must be positive, got {heave_corner_hz}"
            )
        self.anchor = anchor
        self.drift_radius_m = drift_radius_m
        self.heave_corner_hz = heave_corner_hz
        rng = make_rng(seed)
        tilt_rms = math.radians(tilt_rms_deg)
        # Rows: rocking about the x axis, then about the y axis.
        self._tilt = _SinusoidProcess(
            rng, tilt_rms, (tilt_period_s, tilt_period_s)
        )
        # Rows: the x offset, then the y offset.  The RMS keeps the
        # 2-sigma excursion at the radius; values are clipped to it too.
        self._drift = _SinusoidProcess(
            rng, drift_radius_m / 2.0, (drift_period_s, drift_period_s * 1.3)
        )

    # ------------------------------------------------------------------
    # Position
    # ------------------------------------------------------------------
    def drift_offsets(self, t: npt.ArrayLike) -> tuple[np.ndarray, np.ndarray]:
        """Mooring offsets (dx, dy) [m] on the evenly spaced grid ``t``,
        clipped to the drift radius."""
        dx, dy = self._drift(t)
        r = np.hypot(dx, dy)
        if self.drift_radius_m == 0:
            return np.zeros_like(dx), np.zeros_like(dy)
        over = r > self.drift_radius_m
        if np.any(over):
            scale = np.ones_like(r)
            scale[over] = self.drift_radius_m / r[over]
            dx = dx * scale
            dy = dy * scale
        return dx, dy

    def position_at(self, t: float) -> Position:
        """True buoy position at time ``t`` (anchor + mooring drift)."""
        dx, dy = self.drift_offsets(t)
        return Position(self.anchor.x + float(dx[0]), self.anchor.y + float(dy[0]))

    # ------------------------------------------------------------------
    # Sensed accelerations
    # ------------------------------------------------------------------
    def heave_gain(self, frequency_hz: npt.ArrayLike) -> np.ndarray:
        """Mechanical heave response magnitude at ``frequency_hz``.

        A small buoy follows long waves perfectly but cannot follow
        waves shorter than its own scale: the response rolls off as a
        Butterworth magnitude ``1 / sqrt(1 + (f / fc)^(2 n))`` of order
        ``n`` = :data:`HEAVE_ORDER`.  This is why the paper's measured
        ambient spectrum (Fig. 6a) shows a single low-frequency
        concentration even though the raw sea-surface acceleration
        spectrum has a broad saturation tail.
        """
        f = np.asarray(frequency_hz, dtype=float)
        return 1.0 / np.sqrt(
            1.0 + (f / self.heave_corner_hz) ** (2 * HEAVE_ORDER)
        )

    @staticmethod
    def specific_force(
        buoys: Sequence[Buoy],
        t: npt.ArrayLike,
        vertical_accel: np.ndarray,
        horizontal_accel: tuple[np.ndarray, np.ndarray] | None = None,
    ) -> tuple[np.ndarray, Optional[np.ndarray], Optional[np.ndarray]]:
        """Body-frame specific force of a block of buoys; ``(fz, fx, fy)``
        [m/s^2].

        ``t`` is the buoys' shared, evenly spaced sample grid (or a
        slice of it).  Row ``i`` of the float64 (buoys x samples)
        ``vertical_accel`` is the surface vertical acceleration at
        ``buoys[i]`` (ambient field + wakes + disturbances); ``fz`` is
        written over it.  ``fx`` and ``fy`` are new rows, built only
        from the surface's horizontal rows ``horizontal_accel`` (which
        must not share memory with ``vertical_accel``), else ``None``:
        detection reads z alone, and ``fz`` is the same either way.  A
        resting, untilted buoy reads ``fz = +g``.

        Each sub-block of :data:`TILT_BLOCK_BYTES` tilts in one
        :func:`~repro.physics.sinusoids.grid_sinusoid_sum` call over its
        buoys' stacked per-row frequencies.  Every row equals its buoy's
        own sum bit for bit and the projection is elementwise, so no
        buoy's motion depends on the block around it.

        Call it through the class: a function set on the class in its
        place (a profiling wrapper, a test hook) would take an instance
        call's buoy as ``buoys``.
        """
        t = np.atleast_1d(np.asarray(t, dtype=float))
        fz = vertical_accel
        if fz.shape != (len(buoys), t.size):
            raise ConfigurationError(
                f"need one {t.size}-sample row per buoy ({len(buoys)}), "
                f"got shape {fz.shape}"
            )
        fx: Optional[np.ndarray] = None
        fy: Optional[np.ndarray] = None
        if horizontal_accel is not None:
            ax, ay = horizontal_accel
            fx = np.empty_like(fz)
            fy = np.empty_like(fz)
        step = max(TILT_BLOCK_BYTES // max(_tilt_bytes_per_buoy(t.size), 1), 1)
        for lo in range(0, len(buoys), step):
            rows = slice(lo, lo + step)
            # Rows: each buoy's rocking about x, then about y.
            tilt = _SinusoidProcess.stack([b._tilt for b in buoys[rows]])(t)
            theta_x = tilt[0::2]
            theta_y = tilt[1::2]
            vertical = fz[rows]
            vertical += GRAVITY
            if fx is not None and fy is not None:
                np.multiply(vertical, np.sin(theta_y), out=fx[rows])
                np.multiply(-vertical, np.sin(theta_x), out=fy[rows])
                fx[rows] += ax[rows]
                fy[rows] += ay[rows]
            projection = np.cos(theta_x)
            projection *= np.cos(theta_y)
            vertical *= projection
        return fz, fx, fy

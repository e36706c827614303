"""Random-phase synthesis of the ambient ocean wave field.

A sea surface with spectrum S(f) is realised as the sum of N linear
wave components with deterministic amplitudes ``a_i = sqrt(2 S(f_i) df)``
and random phases and directions:

``eta(x, y, t) = sum_i a_i cos(k_i (x cos th_i + y sin th_i) - w_i t + p_i)``

Every component is a deep-water (Airy) wave, ``k_i = w_i^2 / g``, and
the directions spread about the +x axis.  Wave groupiness (the slow
amplitude modulation visible in the paper's Fig. 5) emerges naturally
from the beating of nearby components.  The vertical acceleration a
surface-following buoy feels is the second time derivative of the
elevation, ``-sum a_i w_i^2 cos(...)``.

The field is evaluated for a whole fleet at once: each position's phase
offsets fold into weights on fleet-shared ``cos(w t)`` / ``sin(w t)``
terms, summed on the sample grid by block angle addition
(:func:`~repro.physics.sinusoids.grid_sinusoid_sum`).  A one-node
record is the one-position batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np
import numpy.typing as npt

from repro.constants import GRAVITY
from repro.errors import ConfigurationError
from repro.physics.sinusoids import grid_sinusoid_sum
from repro.physics.spectrum import PiersonMoskowitzSpectrum
from repro.rng import RandomState, make_rng
from repro.types import Position

#: Per-component frequency response: maps component frequencies [Hz]
#: to gains (e.g. a buoy's mechanical heave response).
FrequencyResponse = Callable[[np.ndarray], npt.ArrayLike]


@dataclass(frozen=True)
class WaveComponent:
    """One sinusoidal component of the ambient field."""

    amplitude: float
    frequency_hz: float
    direction_rad: float
    phase_rad: float
    wavenumber: float

    @property
    def omega(self) -> float:
        """Angular frequency [rad/s]."""
        return 2.0 * math.pi * self.frequency_hz


@lru_cache(maxsize=64)
def _spreading_cdf_table(
    spreading_exponent: float,
) -> tuple[np.ndarray, np.ndarray]:
    """The inverse-CDF grid for a ``cos^{2s}`` spreading exponent.

    Building the 2049-point table costs more than the draws it serves,
    and every :class:`AmbientWaveField` construction (one per sweep
    point) needs it, so the table is cached per exponent.  The returned
    arrays are frozen read-only; callers must not mutate them.
    """
    edges = np.linspace(-math.pi, math.pi, 2049)
    midpoints = 0.5 * (edges[:-1] + edges[1:])
    density = np.cos(midpoints / 2.0) ** (2.0 * spreading_exponent)
    cdf = np.concatenate([[0.0], np.cumsum(density)])
    cdf /= cdf[-1]
    cdf.setflags(write=False)
    edges.setflags(write=False)
    return cdf, edges


def _sample_spreading_directions(
    rng: np.random.Generator, n: int, spreading_exponent: float
) -> np.ndarray:
    """Sample directions from a ``cos^{2s}(th / 2)`` spreading.

    Sampling uses a numerically inverted CDF on a fine grid, which is
    exact enough for synthesis and has no rejection-loop worst case.
    The density is evaluated at bin midpoints and the cumulative sum is
    anchored at zero, so the CDF is the exact integral of a piecewise-
    constant density: interpolating ``u`` against it is unbiased (a CDF
    that starts above zero would over-weight the first direction bin).
    """
    if spreading_exponent <= 0:
        # Unidirectional limit.
        return np.zeros(n)
    cdf, edges = _spreading_cdf_table(float(spreading_exponent))
    u = rng.uniform(0.0, 1.0, size=n)
    return np.interp(u, cdf, edges)


class AmbientWaveField:
    """A frozen realisation of the ambient sea for one scenario.

    Parameters
    ----------
    spectrum:
        The 1-D variance density spectrum to realise.
    n_components:
        Number of sinusoidal components.  128 gives a repeat period far
        beyond any scenario length at negligible cost.
    f_min_hz, f_max_hz:
        Band realised.  The default 0.03–1.5 Hz covers swell through
        chop; the detector's 1 Hz low-pass sits inside it.
    spreading_exponent:
        ``s`` of the ``cos^{2s}`` directional spreading about +x
        (0 = unidirectional).
    seed:
        Random state for phases and directions.
    """

    def __init__(
        self,
        spectrum: PiersonMoskowitzSpectrum,
        n_components: int = 128,
        f_min_hz: float = 0.03,
        f_max_hz: float = 1.5,
        spreading_exponent: float = 8.0,
        seed: RandomState = None,
    ) -> None:
        if n_components < 1:
            raise ConfigurationError(
                f"n_components must be >= 1, got {n_components}"
            )
        if not 0 < f_min_hz < f_max_hz:
            raise ConfigurationError("need 0 < f_min_hz < f_max_hz")
        rng = make_rng(seed)
        freqs = np.linspace(f_min_hz, f_max_hz, n_components)
        df = freqs[1] - freqs[0] if n_components > 1 else (f_max_hz - f_min_hz)
        density = np.asarray(spectrum.density(freqs), dtype=float)
        amplitudes = np.sqrt(2.0 * density * df)
        # Jitter frequencies inside their bins so the field never has an
        # exact repeat period.
        if n_components > 1:
            freqs = freqs + rng.uniform(-0.45, 0.45, size=n_components) * df
            freqs = np.clip(freqs, f_min_hz, f_max_hz)
        phases = rng.uniform(0.0, 2.0 * math.pi, size=n_components)
        directions = _sample_spreading_directions(
            rng, n_components, spreading_exponent
        )
        omegas = 2.0 * math.pi * freqs
        # Deep-water dispersion, omega^2 = g k.
        wavenumbers = omegas * omegas / GRAVITY
        self._components = [
            WaveComponent(
                amplitude=float(amplitudes[i]),
                frequency_hz=float(freqs[i]),
                direction_rad=float(directions[i]),
                phase_rad=float(phases[i]),
                wavenumber=float(wavenumbers[i]),
            )
            for i in range(n_components)
        ]
        # Vectorised views used by the hot synthesis path.
        self._amp = amplitudes
        self._omega = omegas
        self._k = wavenumbers
        self._dir_cos = np.cos(directions)
        self._dir_sin = np.sin(directions)
        self._phase = phases

    @property
    def components(self) -> Sequence[WaveComponent]:
        """The realised components (read-only view)."""
        return tuple(self._components)

    # ------------------------------------------------------------------
    # Batched (fleet-scale) synthesis
    # ------------------------------------------------------------------
    #
    # The phase of component i at position p is ``a_pi - w_i t`` with
    # ``a_pi = k_i (x_p cos th_i + y_p sin th_i) + p_i`` independent of
    # time.  The angle-sum identity
    #
    #   cos(a - w t) = cos a cos(w t) + sin a sin(w t)
    #   sin(a - w t) = sin a cos(w t) - cos a sin(w t)
    #
    # turns each position into two weight vectors over the shared
    # ``cos(w t)`` / ``sin(w t)`` terms, and ``grid_sinusoid_sum``
    # contracts every position at once on the sample grid.

    def _spatial_phases(self, positions: Sequence[Position]) -> np.ndarray:
        """Time-independent phase offsets ``a_pi``, shape (P, components)."""
        xs = np.array([p.x for p in positions], dtype=float)
        ys = np.array([p.y for p in positions], dtype=float)
        kx = self._k * self._dir_cos
        ky = self._k * self._dir_sin
        return xs[:, None] * kx[None, :] + ys[:, None] * ky[None, :] + self._phase[None, :]

    def _batch_weights(
        self,
        n_positions: int,
        base: np.ndarray,
        responses: FrequencyResponse | Sequence[FrequencyResponse | None] | None,
    ) -> np.ndarray:
        """Per-position component weights, shape (P, components)."""
        if responses is None:
            return np.broadcast_to(base, (n_positions, base.size))
        freqs = self._omega / (2.0 * math.pi)
        if callable(responses):
            return np.broadcast_to(
                base * np.asarray(responses(freqs), dtype=float),
                (n_positions, base.size),
            )
        if len(responses) != n_positions:
            raise ConfigurationError(
                f"got {len(responses)} responses for {n_positions} positions"
            )
        out = np.empty((n_positions, base.size))
        for i, response in enumerate(responses):
            if response is None:
                out[i] = base
            else:
                out[i] = base * np.asarray(response(freqs), dtype=float)
        return out

    def elevation_batch(
        self, positions: Sequence[Position], t: npt.ArrayLike
    ) -> np.ndarray:
        """Surface elevation [m] at every position; shape (P, len(t))."""
        a = self._spatial_phases(positions)
        return grid_sinusoid_sum(
            self._omega, t, self._amp * np.cos(a), self._amp * np.sin(a)
        )

    def vertical_acceleration_batch(
        self,
        positions: Sequence[Position],
        t: npt.ArrayLike,
        responses: FrequencyResponse | Sequence[FrequencyResponse | None] | None = None,
    ) -> np.ndarray:
        """Vertical acceleration [m/s^2] at every position; (P, len(t)).

        ``d^2 eta / dt^2 = -sum a_i w_i^2 cos(phase_i)``, with the trig
        terms shared by the whole fleet.  ``responses`` weights each
        component per frequency [Hz] (e.g. a buoy's mechanical heave
        response, :meth:`repro.physics.buoy.Buoy.heave_gain`): either
        one callable shared by every position, or a sequence with one
        callable (or ``None``) per position.
        """
        a = self._spatial_phases(positions)
        # d^2/dt^2 cos(a - w t) = -w^2 cos(a - w t)
        w = -self._batch_weights(
            len(positions), self._amp * self._omega**2, responses
        )
        return grid_sinusoid_sum(self._omega, t, w * np.cos(a), w * np.sin(a))

    def horizontal_acceleration_batch(
        self, positions: Sequence[Position], t: npt.ArrayLike
    ) -> tuple[np.ndarray, np.ndarray]:
        """Surface horizontal particle acceleration [m/s^2] at every position.

        Returns ``(ax, ay)`` each of shape (P, len(t)).  In the
        deep-water limit the horizontal acceleration amplitude at the
        surface equals ``a w^2`` in quadrature with the vertical one,
        directed along each component's propagation direction.
        """
        a = self._spatial_phases(positions)
        weights = self._amp * self._omega**2
        wx = weights * self._dir_cos
        wy = weights * self._dir_sin
        cos_a = np.cos(a)
        sin_a = np.sin(a)
        # Both axes in one contraction over stacked rows.
        both = grid_sinusoid_sum(
            self._omega,
            t,
            np.concatenate([wx * sin_a, wy * sin_a]),
            -np.concatenate([wx * cos_a, wy * cos_a]),
        )
        return both[: len(positions)], both[len(positions) :]

    def significant_wave_height(self) -> float:
        """Hs of the realised field, ``4 sqrt(sum a_i^2 / 2)``."""
        return 4.0 * math.sqrt(float(np.sum(self._amp**2) / 2.0))

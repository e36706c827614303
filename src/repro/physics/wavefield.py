"""Random-phase synthesis of the ambient ocean wave field.

A sea surface with spectrum S(f) is realised as the sum of N linear
wave components with deterministic amplitudes ``a_i = sqrt(2 S(f_i) df)``
and random phases and directions:

``eta(x, y, t) = sum_i a_i cos(k_i (x cos th_i + y sin th_i) - w_i t + p_i)``

Wave groupiness (the slow amplitude modulation visible in the paper's
Fig. 5) emerges naturally from the beating of nearby components.  The
vertical acceleration a surface-following buoy feels is the second time
derivative of the elevation, ``-sum a_i w_i^2 cos(...)``.

Two evaluation engines realise the same field:

- **time domain**: the single-position evaluators (the per-node
  reference) build explicit ``(components x samples)`` phase matrices;
  the batch evaluators fold each position's phase offsets into weights
  and sum the sinusoids on the sample grid by block angle addition
  (:func:`~repro.physics.sinusoids.grid_sinusoid_sum`);
- **spectral**: when the field is realised on a
  :class:`SpectralGrid`, every component frequency is snapped to an
  FFT bin at construction time, so a whole fleet's traces collapse to
  per-node complex spectra and one batched inverse real FFT
  (``method="spectral"`` on the batch evaluators).  Both engines
  evaluate the exact same realised components; they differ only in
  floating-point summation order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional, Sequence

import numpy as np
import numpy.typing as npt
from scipy.fft import next_fast_len

from repro.errors import ConfigurationError
from repro.physics.airy import wavenumber_from_omega
from repro.physics.sinusoids import grid_sinusoid_sum
from repro.physics.spectrum import WaveSpectrum
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
    rng: np.random.Generator,
    n: int,
    mean_direction_rad: float,
    spreading_exponent: float,
) -> np.ndarray:
    """Sample directions from a ``cos^{2s}((th - th0)/2)`` spreading.

    Sampling uses a numerically inverted CDF on a fine grid, which is
    exact enough for synthesis and has no rejection-loop worst case.
    The density is evaluated at bin midpoints and the cumulative sum is
    anchored at zero, so the CDF is the exact integral of a piecewise-
    constant density: interpolating ``u`` against it is unbiased (a CDF
    that starts above zero would over-weight the first direction bin).
    """
    if spreading_exponent <= 0:
        # Unidirectional limit.
        return np.full(n, mean_direction_rad)
    cdf, edges = _spreading_cdf_table(float(spreading_exponent))
    u = rng.uniform(0.0, 1.0, size=n)
    offsets = np.interp(u, cdf, edges)
    return mean_direction_rad + offsets


@dataclass(frozen=True)
class SpectralGrid:
    """The FFT frequency grid one field realisation is snapped onto.

    ``n_samples`` and ``dt_s`` describe the sample record the field
    will be evaluated on (the fleet's shared mote grid).  The IFFT
    length ``L`` is the smallest FFT-friendly size satisfying both

    - ``L >= n_samples`` — the record fits inside one IFFT period, and
    - ``1 / (L dt) <= component spacing / oversample`` — the frequency
      grid *oversamples* the realised component comb, so snapping a
      jittered frequency moves it by at most ``1/(2 oversample)`` of a
      component spacing (small against the +/-45 % in-bin jitter).

    The spacing of the grid is then ``df = 1 / (L dt)``.
    """

    n_samples: int
    dt_s: float
    oversample: int = 4

    def __post_init__(self) -> None:
        if self.n_samples < 2:
            raise ConfigurationError(
                f"spectral grid needs >= 2 samples, got {self.n_samples}"
            )
        if self.dt_s <= 0:
            raise ConfigurationError(
                f"dt_s must be positive, got {self.dt_s}"
            )
        if self.oversample < 1:
            raise ConfigurationError(
                f"oversample must be >= 1, got {self.oversample}"
            )

    def spacing_hz(self, component_spacing_hz: float) -> float:
        """Grid spacing ``df`` for a field with this component comb."""
        if component_spacing_hz <= 0:
            raise ConfigurationError(
                "component spacing must be positive, got "
                f"{component_spacing_hz}"
            )
        by_resolution = math.ceil(
            self.oversample / (self.dt_s * component_spacing_hz)
        )
        fft_length = int(next_fast_len(max(self.n_samples, by_resolution)))
        return 1.0 / (fft_length * self.dt_s)


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
    mean_direction_rad:
        Mean wave propagation direction.
    spreading_exponent:
        ``s`` of the ``cos^{2s}`` directional spreading (0 = unidirectional).
    depth_m:
        Water depth; ``None`` = deep water.
    seed:
        Random state for phases and directions.
    spectral_grid:
        When given, every jittered component frequency is snapped onto
        that FFT grid *at realisation time*, enabling the
        ``method="spectral"`` batch evaluators.  Both evaluation
        engines then see the exact same realised components, so their
        outputs agree to floating-point rounding.  ``None`` (the
        default) keeps the realisation bit-identical to a field built
        before the spectral engine existed (time-domain only).
    """

    def __init__(
        self,
        spectrum: WaveSpectrum,
        n_components: int = 128,
        f_min_hz: float = 0.03,
        f_max_hz: float = 1.5,
        mean_direction_rad: float = 0.0,
        spreading_exponent: float = 8.0,
        depth_m: Optional[float] = None,
        seed: RandomState = None,
        spectral_grid: SpectralGrid | None = None,
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
        self._grid_df: float | None = None
        self._grid_bins: np.ndarray | None = None
        if spectral_grid is not None:
            # Snap each jittered frequency to its nearest FFT bin.  The
            # amplitudes (drawn from the spectrum at the bin centres)
            # and every RNG draw are untouched, so a snapped field is
            # the same realisation displaced by <= df/2 per component.
            grid_df = spectral_grid.spacing_hz(float(df))
            if f_max_hz >= 0.5 / spectral_grid.dt_s:
                raise ConfigurationError(
                    f"f_max_hz {f_max_hz} is at or above the Nyquist "
                    f"frequency {0.5 / spectral_grid.dt_s} of the "
                    "spectral grid's sample step"
                )
            bins = np.maximum(
                np.rint(freqs / grid_df).astype(np.int64), 1
            )
            freqs = bins * grid_df
            self._grid_df = grid_df
            self._grid_bins = bins
        phases = rng.uniform(0.0, 2.0 * math.pi, size=n_components)
        directions = _sample_spreading_directions(
            rng, n_components, mean_direction_rad, spreading_exponent
        )
        omegas = 2.0 * math.pi * freqs
        wavenumbers = np.array(
            [wavenumber_from_omega(float(w), depth_m) for w in omegas]
        )
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

    @property
    def frequency_grid_hz(self) -> float | None:
        """FFT grid spacing the realised frequencies sit on (or None)."""
        return self._grid_df

    def _phases_at(self, position: Position, t: np.ndarray) -> np.ndarray:
        """Phase matrix, shape (n_components, len(t))."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        spatial = self._k * (
            position.x * self._dir_cos + position.y * self._dir_sin
        )
        return (spatial + self._phase)[:, None] - self._omega[:, None] * t[None, :]

    def elevation(self, position: Position, t: npt.ArrayLike) -> np.ndarray:
        """Surface elevation [m] at ``position`` for time array ``t`` [s]."""
        ph = self._phases_at(position, t)
        return np.asarray(self._amp @ np.cos(ph))

    def vertical_acceleration(
        self,
        position: Position,
        t: npt.ArrayLike,
        response: FrequencyResponse | None = None,
    ) -> np.ndarray:
        """Surface vertical acceleration [m/s^2] at ``position`` over ``t``.

        ``d^2 eta / dt^2 = -sum a_i w_i^2 cos(phase_i)``.

        ``response``, if given, is a callable mapping frequency [Hz] to
        a per-component gain — e.g. a buoy's mechanical heave response
        (:meth:`repro.physics.buoy.Buoy.heave_gain`).
        """
        ph = self._phases_at(position, t)
        weights = self._amp * self._omega**2
        if response is not None:
            freqs = self._omega / (2.0 * math.pi)
            weights = weights * np.asarray(response(freqs), dtype=float)
        return np.asarray(-(weights @ np.cos(ph)))

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

    # ------------------------------------------------------------------
    # Spectral (inverse-FFT) synthesis
    # ------------------------------------------------------------------
    #
    # On a grid-snapped field, component i occupies FFT bin ``m_i``
    # (``w_i = 2 pi m_i df``) and the record instants are
    # ``t_n = t_0 + n dt`` with ``df dt = 1/L``, so
    #
    #   cos(a_pi - w_i t_n) = Re[ exp(-j phi_pi) exp(2 pi j m_i n / L) ]
    #   sin(a_pi - w_i t_n) = Re[ j exp(-j phi_pi) exp(2 pi j m_i n / L) ]
    #
    # with ``phi_pi = a_pi - w_i t_0``.  Accumulating each component's
    # complex coefficient into its bin and taking one batched inverse
    # real FFT contracts the whole fleet in O(P L log L) instead of the
    # time-domain engine's O(C S) trig + O(P C S) GEMM.

    def _spectral_fft_length(self, t: np.ndarray) -> int:
        """Validate ``t`` against the frequency grid; the IFFT length."""
        if self._grid_df is None or self._grid_bins is None:
            raise ConfigurationError(
                "spectral synthesis needs a grid-snapped field; "
                "construct AmbientWaveField with spectral_grid="
            )
        if t.size < 2:
            raise ConfigurationError(
                "spectral synthesis needs >= 2 sample instants"
            )
        dt = float(t[1] - t[0])
        if dt <= 0 or not np.allclose(
            np.diff(t), dt, rtol=0.0, atol=1e-9
        ):
            raise ConfigurationError(
                "spectral synthesis needs a uniform, increasing sample "
                "grid"
            )
        fft_length = int(round(1.0 / (self._grid_df * dt)))
        if (
            fft_length < 1
            or abs(1.0 / (fft_length * dt) - self._grid_df)
            > 1e-9 * self._grid_df
        ):
            raise ConfigurationError(
                f"sample step {dt} is incommensurate with the field's "
                f"frequency grid ({self._grid_df} Hz)"
            )
        if fft_length < t.size:
            raise ConfigurationError(
                f"record of {t.size} samples exceeds the spectral grid "
                f"period ({fft_length} samples); realise the field on a "
                "SpectralGrid covering the full record"
            )
        if int(self._grid_bins.max()) >= fft_length // 2:
            raise ConfigurationError(
                "realised components reach the Nyquist bin of this "
                "sample grid; use a finer sample step"
            )
        return fft_length

    def _spectral_rotation(
        self, positions: Sequence[Position], t0: float
    ) -> np.ndarray:
        """``exp(-j phi_pi)`` with ``phi_pi = a_pi - w_i t0``; (P, C)."""
        a = self._spatial_phases(positions)
        return np.exp(-1j * (a - self._omega[None, :] * t0))

    def _spectral_series(
        self, coeff: np.ndarray, fft_length: int, n_samples: int
    ) -> np.ndarray:
        """Realise ``sum_i Re(coeff_pi exp(2 pi j m_i n / L))`` rows.

        ``coeff`` has shape (P, components); rows with components
        sharing a bin accumulate (``np.add.at``).  Returns the first
        ``n_samples`` of the length-``fft_length`` inverse real FFT.
        """
        bins = self._grid_bins
        if bins is None:  # pragma: no cover - guarded by callers
            raise ConfigurationError("field has no spectral grid")
        spectrum = np.zeros(
            (coeff.shape[0], fft_length // 2 + 1), dtype=complex
        )
        np.add.at(
            spectrum,
            (np.arange(coeff.shape[0])[:, None], bins[None, :]),
            (0.5 * fft_length) * coeff,
        )
        return np.fft.irfft(spectrum, n=fft_length, axis=1)[:, :n_samples]

    @staticmethod
    def _check_method(method: str) -> None:
        if method not in ("timedomain", "spectral"):
            raise ConfigurationError(
                f"method must be 'timedomain' or 'spectral', got {method!r}"
            )

    def elevation_batch(
        self,
        positions: Sequence[Position],
        t: npt.ArrayLike,
        method: str = "timedomain",
    ) -> np.ndarray:
        """Surface elevation [m] at every position; shape (P, len(t))."""
        self._check_method(method)
        if method == "spectral":
            t = np.atleast_1d(np.asarray(t, dtype=float))
            fft_length = self._spectral_fft_length(t)
            rot = self._spectral_rotation(positions, float(t[0]))
            return self._spectral_series(
                self._amp[None, :] * rot, fft_length, t.size
            )
        a = self._spatial_phases(positions)
        return grid_sinusoid_sum(
            self._omega, t, self._amp * np.cos(a), self._amp * np.sin(a)
        )

    def vertical_acceleration_batch(
        self,
        positions: Sequence[Position],
        t: npt.ArrayLike,
        responses: FrequencyResponse | Sequence[FrequencyResponse | None] | None = None,
        method: str = "timedomain",
    ) -> np.ndarray:
        """Vertical acceleration [m/s^2] at every position; (P, len(t)).

        Numerically equivalent to calling :meth:`vertical_acceleration`
        per position (to angle-addition rounding), but the trig terms
        are shared by the whole fleet.  ``responses`` is either
        one frequency-response callable shared by every position, or a
        sequence with one callable (or ``None``) per position.

        ``method="spectral"`` contracts the fleet with one batched
        inverse real FFT instead (grid-snapped fields only); the two
        engines sum the same realised components and agree to
        floating-point rounding.
        """
        self._check_method(method)
        if method == "spectral":
            t = np.atleast_1d(np.asarray(t, dtype=float))
            fft_length = self._spectral_fft_length(t)
            w = self._batch_weights(
                len(positions), self._amp * self._omega**2, responses
            )
            rot = self._spectral_rotation(positions, float(t[0]))
            return self._spectral_series(-(w * rot), fft_length, t.size)
        a = self._spatial_phases(positions)
        # d^2/dt^2 cos(a - w t) = -w^2 cos(a - w t)
        w = -self._batch_weights(
            len(positions), self._amp * self._omega**2, responses
        )
        return grid_sinusoid_sum(self._omega, t, w * np.cos(a), w * np.sin(a))

    def horizontal_acceleration_batch(
        self,
        positions: Sequence[Position],
        t: npt.ArrayLike,
        method: str = "timedomain",
    ) -> tuple[np.ndarray, np.ndarray]:
        """Horizontal acceleration components at every position.

        Returns ``(ax, ay)`` each of shape (P, len(t)); the batched
        counterpart of :meth:`horizontal_acceleration`.
        """
        self._check_method(method)
        if method == "spectral":
            t = np.atleast_1d(np.asarray(t, dtype=float))
            fft_length = self._spectral_fft_length(t)
            weights = self._amp * self._omega**2
            rot = 1j * self._spectral_rotation(positions, float(t[0]))
            ax = self._spectral_series(
                (weights * self._dir_cos)[None, :] * rot, fft_length, t.size
            )
            ay = self._spectral_series(
                (weights * self._dir_sin)[None, :] * rot, fft_length, t.size
            )
            return ax, ay
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

    def horizontal_acceleration(
        self, position: Position, t: npt.ArrayLike
    ) -> tuple[np.ndarray, np.ndarray]:
        """Surface horizontal particle acceleration components [m/s^2].

        In the deep-water limit the horizontal acceleration amplitude at
        the surface equals ``a w^2`` in quadrature with the vertical one,
        directed along each component's propagation direction.
        """
        ph = self._phases_at(position, t)
        weights = self._amp * self._omega**2
        s = np.sin(ph)
        ax = (weights * self._dir_cos) @ s
        ay = (weights * self._dir_sin) @ s
        return np.asarray(ax), np.asarray(ay)

    def significant_wave_height(self) -> float:
        """Hs of the realised field, ``4 sqrt(sum a_i^2 / 2)``."""
        return 4.0 * math.sqrt(float(np.sum(self._amp**2) / 2.0))

"""Ambient ocean wave spectra.

The ambient (non-ship) sea surface is characterised by a variance
density spectrum S(f) [m^2/Hz].  We provide the two classical wind-sea
spectra — Pierson–Moskowitz for a fully developed sea and JONSWAP for a
fetch-limited sea — plus named sea-state presets used by the scenario
layer.  The paper's deployment area is a near-coast surface with a mild
wind sea; its ambient z-acceleration spectrum shows a single dominant
peak (Fig. 6a), which both spectra reproduce.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Protocol, runtime_checkable

import numpy as np
import numpy.typing as npt

from repro.constants import GRAVITY
from repro.errors import ConfigurationError


@runtime_checkable
class WaveSpectrum(Protocol):
    """A one-dimensional wave variance density spectrum."""

    def density(self, frequency_hz: np.ndarray) -> np.ndarray:
        """Spectral density S(f) [m^2/Hz] at ``frequency_hz`` [Hz]."""
        ...

    @property
    def peak_frequency_hz(self) -> float:
        """Frequency of the spectral peak [Hz]."""
        ...


def _as_positive_array(frequency_hz: npt.ArrayLike) -> np.ndarray:
    f = np.asarray(frequency_hz, dtype=float)
    if np.any(f < 0):
        raise ConfigurationError("frequencies must be non-negative")
    return f


@dataclass(frozen=True)
class PiersonMoskowitzSpectrum:
    """Pierson–Moskowitz spectrum for a fully developed wind sea.

    ``S(f) = alpha g^2 (2 pi)^-4 f^-5 exp(-5/4 (f_p / f)^4)``

    parameterised by the wind speed at 19.5 m, from which the peak
    frequency follows as ``f_p = 0.877 g / (2 pi U_19.5)``.
    """

    wind_speed_mps: float
    alpha: float = 8.1e-3

    def __post_init__(self) -> None:
        if self.wind_speed_mps <= 0:
            raise ConfigurationError(
                f"wind speed must be positive, got {self.wind_speed_mps}"
            )
        if self.alpha <= 0:
            raise ConfigurationError(f"alpha must be positive, got {self.alpha}")

    @property
    def peak_frequency_hz(self) -> float:
        return 0.877 * GRAVITY / (2.0 * math.pi * self.wind_speed_mps)

    def density(self, frequency_hz: npt.ArrayLike) -> np.ndarray:
        f = _as_positive_array(frequency_hz)
        fp = self.peak_frequency_hz
        out = np.zeros_like(f)
        pos = f > 0
        fpos = f[pos]
        out[pos] = (
            self.alpha
            * GRAVITY**2
            * (2.0 * math.pi) ** -4
            * fpos**-5
            * np.exp(-1.25 * (fp / fpos) ** 4)
        )
        return out

    def significant_wave_height(self) -> float:
        """Hs = 4 sqrt(m0) with m0 integrated over the spectrum."""
        return significant_wave_height(self)


@dataclass(frozen=True)
class JONSWAPSpectrum:
    """JONSWAP spectrum for a fetch-limited wind sea.

    Pierson–Moskowitz shape multiplied by the peak-enhancement factor
    ``gamma ** r`` with ``r = exp(-(f - f_p)^2 / (2 sigma^2 f_p^2))``
    and sigma = 0.07 below / 0.09 above the peak.
    """

    wind_speed_mps: float
    fetch_m: float = 50e3
    gamma: float = 3.3

    def __post_init__(self) -> None:
        if self.wind_speed_mps <= 0:
            raise ConfigurationError(
                f"wind speed must be positive, got {self.wind_speed_mps}"
            )
        if self.fetch_m <= 0:
            raise ConfigurationError(f"fetch must be positive, got {self.fetch_m}")
        if self.gamma < 1:
            raise ConfigurationError(f"gamma must be >= 1, got {self.gamma}")

    @property
    def peak_frequency_hz(self) -> float:
        u = self.wind_speed_mps
        x = GRAVITY * self.fetch_m / (u * u)  # dimensionless fetch
        return 3.5 * (GRAVITY / u) * x**-0.33

    @property
    def alpha(self) -> float:
        """Fetch-dependent Phillips constant."""
        u = self.wind_speed_mps
        x = GRAVITY * self.fetch_m / (u * u)
        return 0.076 * x**-0.22

    def density(self, frequency_hz: npt.ArrayLike) -> np.ndarray:
        f = _as_positive_array(frequency_hz)
        fp = self.peak_frequency_hz
        out = np.zeros_like(f)
        pos = f > 0
        fpos = f[pos]
        base = (
            self.alpha
            * GRAVITY**2
            * (2.0 * math.pi) ** -4
            * fpos**-5
            * np.exp(-1.25 * (fp / fpos) ** 4)
        )
        sigma = np.where(fpos <= fp, 0.07, 0.09)
        r = np.exp(-((fpos - fp) ** 2) / (2.0 * sigma**2 * fp**2))
        out[pos] = base * self.gamma**r
        return out

    def significant_wave_height(self) -> float:
        """Hs = 4 sqrt(m0) with m0 integrated over the spectrum."""
        return significant_wave_height(self)


def spectral_moment(
    spectrum: WaveSpectrum,
    order: int = 0,
    f_min_hz: float = 1e-3,
    f_max_hz: float = 2.0,
    n: int = 4096,
) -> float:
    """Numerically integrate ``m_n = \\int f^n S(f) df``."""
    if order < 0:
        raise ConfigurationError(f"moment order must be >= 0, got {order}")
    if not 0 < f_min_hz < f_max_hz:
        raise ConfigurationError("need 0 < f_min_hz < f_max_hz")
    f = np.linspace(f_min_hz, f_max_hz, n)
    s = spectrum.density(f)
    return float(np.trapezoid(f**order * s, f))


def significant_wave_height(spectrum: WaveSpectrum) -> float:
    """Significant wave height ``Hs = 4 sqrt(m0)`` [m]."""
    return 4.0 * math.sqrt(spectral_moment(spectrum, 0))


class SeaState(Enum):
    """Named sea states used by the scenario presets.

    The values are wind speeds [m/s] chosen so the resulting significant
    wave heights span the conditions plausible for the paper's near-coast
    deployment (calm harbor water up to a fresh breeze).
    """

    CALM = 3.0
    SLIGHT = 5.0
    MODERATE = 7.5
    ROUGH = 10.0

    @property
    def wind_speed_mps(self) -> float:
        return float(self.value)


def sea_state_spectrum(
    state: SeaState, kind: str = "pierson-moskowitz"
) -> WaveSpectrum:
    """Build the canonical spectrum for a named sea state.

    ``kind`` selects ``"pierson-moskowitz"`` (default) or ``"jonswap"``.
    """
    if kind == "pierson-moskowitz":
        return PiersonMoskowitzSpectrum(state.wind_speed_mps)
    if kind == "jonswap":
        return JONSWAPSpectrum(state.wind_speed_mps)
    raise ConfigurationError(f"unknown spectrum kind: {kind!r}")

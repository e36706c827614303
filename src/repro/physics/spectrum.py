"""The ambient ocean wave spectrum.

The ambient (non-ship) sea surface is characterised by a variance
density spectrum S(f) [m^2/Hz]: the Pierson–Moskowitz spectrum of a
fully developed wind sea, plus named sea-state presets used by the
scenario layer.  The paper's deployment area is a near-coast surface
with a mild wind sea; its ambient z-acceleration spectrum shows a
single dominant peak (Fig. 6a), which the spectrum reproduces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
import numpy.typing as npt

from repro.constants import GRAVITY
from repro.errors import ConfigurationError


#: Phillips constant of the Pierson–Moskowitz spectrum.
PM_ALPHA = 8.1e-3

#: Band and grid [Hz] over which :func:`spectral_moment` integrates.
MOMENT_F_MIN_HZ = 1e-3
MOMENT_F_MAX_HZ = 2.0
MOMENT_POINTS = 4096


def _as_positive_array(frequency_hz: npt.ArrayLike) -> np.ndarray:
    f = np.asarray(frequency_hz, dtype=float)
    if np.any(f < 0):
        raise ConfigurationError("frequencies must be non-negative")
    return f


@dataclass(frozen=True)
class PiersonMoskowitzSpectrum:
    """Pierson–Moskowitz spectrum for a fully developed wind sea.

    ``S(f) = alpha g^2 (2 pi)^-4 f^-5 exp(-5/4 (f_p / f)^4)``

    with ``alpha`` = :data:`PM_ALPHA`, parameterised by the wind speed
    at 19.5 m, from which the peak frequency follows as
    ``f_p = 0.877 g / (2 pi U_19.5)``.
    """

    wind_speed_mps: float

    def __post_init__(self) -> None:
        if self.wind_speed_mps <= 0:
            raise ConfigurationError(
                f"wind speed must be positive, got {self.wind_speed_mps}"
            )

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
            PM_ALPHA
            * GRAVITY**2
            * (2.0 * math.pi) ** -4
            * fpos**-5
            * np.exp(-1.25 * (fp / fpos) ** 4)
        )
        return out

    def significant_wave_height(self) -> float:
        """Hs = 4 sqrt(m0) with m0 integrated over the spectrum."""
        return significant_wave_height(self)


def spectral_moment(spectrum: PiersonMoskowitzSpectrum, order: int = 0) -> float:
    """Numerically integrate ``m_n = \\int f^n S(f) df`` over
    :data:`MOMENT_F_MIN_HZ`–:data:`MOMENT_F_MAX_HZ`."""
    if order < 0:
        raise ConfigurationError(f"moment order must be >= 0, got {order}")
    f = np.linspace(MOMENT_F_MIN_HZ, MOMENT_F_MAX_HZ, MOMENT_POINTS)
    s = spectrum.density(f)
    return float(np.trapezoid(f**order * s, f))


def significant_wave_height(spectrum: PiersonMoskowitzSpectrum) -> float:
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


def sea_state_spectrum(state: SeaState) -> PiersonMoskowitzSpectrum:
    """The Pierson–Moskowitz spectrum of a named sea state."""
    return PiersonMoskowitzSpectrum(state.wind_speed_mps)

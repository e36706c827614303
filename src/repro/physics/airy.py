"""Linear (Airy) wave theory: the dispersion relation and its inverse.

The ambient wave field gives each spectral component the wavenumber of
its frequency through :func:`wavenumber_from_omega`.  Deep water means
``depth > wavelength / 2``; ``depth=None`` selects the deep-water limit
throughout.
"""

from __future__ import annotations

import math
from typing import Optional

from repro.constants import GRAVITY
from repro.errors import ConfigurationError


def dispersion_omega(k: float, depth: Optional[float] = None) -> float:
    """Angular frequency omega for wavenumber ``k`` [rad/m].

    Deep water: ``omega^2 = g k``.  Finite depth ``h``:
    ``omega^2 = g k tanh(k h)``.
    """
    if k <= 0:
        raise ConfigurationError(f"wavenumber must be positive, got {k}")
    if depth is None:
        return math.sqrt(GRAVITY * k)
    if depth <= 0:
        raise ConfigurationError(f"depth must be positive, got {depth}")
    return math.sqrt(GRAVITY * k * math.tanh(k * depth))


def wavenumber_from_omega(
    omega: float, depth: Optional[float] = None, tol: float = 1e-12
) -> float:
    """Invert the dispersion relation: wavenumber for frequency ``omega``.

    The finite-depth relation is transcendental; we solve it by
    Newton iteration seeded with the deep-water value.
    """
    if omega <= 0:
        raise ConfigurationError(f"omega must be positive, got {omega}")
    k_deep = omega * omega / GRAVITY
    if depth is None:
        return k_deep
    if depth <= 0:
        raise ConfigurationError(f"depth must be positive, got {depth}")
    # Newton iteration on f(k) = g k tanh(k h) - omega^2.
    k = max(k_deep, omega / math.sqrt(GRAVITY * depth))
    for _ in range(100):
        th = math.tanh(k * depth)
        f = GRAVITY * k * th - omega * omega
        df = GRAVITY * (th + k * depth * (1.0 - th * th))
        step = f / df
        k -= step
        if k <= 0:
            k = k_deep * 0.5
        if abs(step) < tol * max(k, 1.0):
            break
    return k

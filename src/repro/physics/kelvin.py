"""The Kelvin ship-wake model (paper Sec. II).

A ship moving across the surface generates a V-shaped wave pattern made
of divergent and transverse waves.  The cusp locus line forms a fixed
19 deg 28 min angle with the sailing line in deep water, independent of
ship size and speed (Lord Kelvin's result, paper Fig. 3).  This module
captures the pieces of that theory the detection system relies on:

- the wedge geometry, giving the **arrival time** of the wake front at a
  fixed observation point (the timestamps consumed by eqs. 14-16);
- the **decay laws**: divergent-wave height at the cusp points falls as
  ``d^(-1/3)`` (paper eq. 1) while transverse waves fall as ``d^(-1/2)``
  and are therefore invisible far from the vessel;
- the **wake wave speed** ``W_v = V cos(Theta)`` with
  ``Theta = 35.27 (1 - e^{12 (F_d - 1)})`` degrees (paper eq. 2), where
  ``F_d`` is the depth Froude number of the travelling ship.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from repro.constants import (
    GRAVITY,
    KELVIN_CUSP_ANGLE_RAD,
)
from repro.errors import ConfigurationError, GeometryError
from repro.types import Position

#: Theta of eq. 2 approaches this value (degrees) in deep water; it is
#: the angle between the sailing line and the propagation direction of
#: the diverging waves at the cusp (90 deg - 54 deg 44 min).
DEEP_WATER_THETA_DEG = 35.27

#: Lateral distance [m] below which :meth:`KelvinWake.arrival_time`
#: clamps a point, so a point on the sailing line is swept just after
#: the ship passes abeam.
MIN_ARRIVAL_LATERAL_M = 1e-6

#: Lateral distance [m] below which :meth:`KelvinWake.wave_height_at`
#: clamps a point: eq. 1 diverges at the sailing line, but physically
#: the wake height saturates near the hull.
MIN_HEIGHT_LATERAL_M = 2.0


def depth_froude_number(speed_mps: float, depth_m: float) -> float:
    """Depth Froude number ``F_d = V / sqrt(g h)``."""
    if speed_mps < 0:
        raise ConfigurationError(f"speed must be >= 0, got {speed_mps}")
    if depth_m <= 0:
        raise ConfigurationError(f"depth must be positive, got {depth_m}")
    return speed_mps / math.sqrt(GRAVITY * depth_m)


def wake_propagation_angle_deg(froude_depth: float) -> float:
    """Theta of paper eq. 2, in degrees.

    ``Theta = 35.27 (1 - e^{12 (F_d - 1)})``.  For a slow ship in deep
    water (F_d -> 0) this approaches 35.27 deg; it collapses to zero as
    the ship reaches the critical depth Froude number F_d = 1.  The
    formula is only meaningful in the subcritical regime; supercritical
    inputs are rejected.
    """
    if froude_depth < 0:
        raise ConfigurationError(f"F_d must be >= 0, got {froude_depth}")
    if froude_depth >= 1.0:
        raise ConfigurationError(
            f"eq. 2 only covers the subcritical regime (F_d < 1), got {froude_depth}"
        )
    return DEEP_WATER_THETA_DEG * (1.0 - math.exp(12.0 * (froude_depth - 1.0)))


def wake_wave_speed(speed_mps: float, depth_m: Optional[float] = None) -> float:
    """Ship-wave propagation speed ``W_v = V cos(Theta)`` (paper eq. 2)."""
    if speed_mps < 0:
        raise ConfigurationError(f"speed must be >= 0, got {speed_mps}")
    if depth_m is None:
        theta_deg = DEEP_WATER_THETA_DEG
    else:
        theta_deg = wake_propagation_angle_deg(
            depth_froude_number(speed_mps, depth_m)
        )
    return speed_mps * math.cos(math.radians(theta_deg))


def cusp_wave_period(speed_mps: float, depth_m: Optional[float] = None) -> float:
    """Period of the diverging waves observed at the cusp locus [s].

    The diverging wave at the cusp propagates at phase speed
    ``c = W_v = V cos(Theta)``; deep-water dispersion then gives the
    period ``T = 2 pi c / g``.  For the paper's 10-knot runs this is
    about 2.7 s (0.37 Hz) — the "low frequency" energy the wavelet
    scalogram of Fig. 7 highlights.
    """
    c = wake_wave_speed(speed_mps, depth_m)
    if c <= 0:
        raise ConfigurationError("ship speed must be positive for a wave period")
    return 2.0 * math.pi * c / GRAVITY


def divergent_wave_height(coefficient: float, distance_m: float) -> float:
    """Paper eq. 1: ``H_m = c d^(-1/3)`` for the divergent (cusp) waves."""
    if coefficient < 0:
        raise ConfigurationError(f"coefficient must be >= 0, got {coefficient}")
    if distance_m <= 0:
        raise GeometryError(f"distance must be positive, got {distance_m}")
    return coefficient * distance_m ** (-1.0 / 3.0)


def transverse_wave_height(coefficient: float, distance_m: float) -> float:
    """Transverse-wave decay ``H = c d^(-1/2)`` (Sec. II-B).

    Faster than the divergent ``d^(-1/3)`` decay, which is why only
    divergent waves are observable far from the vessel.
    """
    if coefficient < 0:
        raise ConfigurationError(f"coefficient must be >= 0, got {coefficient}")
    if distance_m <= 0:
        raise GeometryError(f"distance must be positive, got {distance_m}")
    return coefficient * distance_m ** (-0.5)


def default_amplitude_coefficient(
    speed_mps: float, wave_making_factor: float = 0.18
) -> float:
    """A plausible eq.-1 coefficient for a small vessel at ``speed_mps``.

    The paper only says the coefficient "is related to the speed of the
    passing ship".  We model the near-field wake height as scaling with
    ``V^2 / g`` (the natural wave-making length scale), giving
    ``c = wave_making_factor * V^2 / g`` in units of m^(4/3).  With the
    default factor a 10-knot fishing boat produces a ~17 cm cusp wave
    25 m off the sailing line, consistent with published small-craft
    wake measurements.
    """
    if speed_mps < 0:
        raise ConfigurationError(f"speed must be >= 0, got {speed_mps}")
    if wave_making_factor <= 0:
        raise ConfigurationError(
            f"wave_making_factor must be positive, got {wave_making_factor}"
        )
    return wave_making_factor * speed_mps * speed_mps / GRAVITY


@dataclass(frozen=True)
class KelvinWake:
    """The wake wedge trailing one ship on a straight track.

    The ship is at ``origin`` at time ``t0`` and sails with constant
    ``speed_mps`` on heading ``heading_rad`` (mathematical convention,
    measured from +x towards +y).

    The class answers the geometric questions the detection layer needs:
    when does the wedge front reach a buoy, how high are the cusp waves
    there, and how long does the wave train last.
    """

    origin: Position
    heading_rad: float
    speed_mps: float
    t0: float = 0.0
    half_angle_rad: float = KELVIN_CUSP_ANGLE_RAD
    amplitude_coefficient: Optional[float] = None
    depth_m: Optional[float] = None
    _coeff: float = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.speed_mps <= 0:
            raise ConfigurationError(
                f"ship speed must be positive, got {self.speed_mps}"
            )
        if not 0 < self.half_angle_rad < math.pi / 2:
            raise ConfigurationError(
                f"half angle must be in (0, pi/2), got {self.half_angle_rad}"
            )
        coeff = (
            self.amplitude_coefficient
            if self.amplitude_coefficient is not None
            else default_amplitude_coefficient(self.speed_mps)
        )
        object.__setattr__(self, "_coeff", coeff)

    # ------------------------------------------------------------------
    # Track geometry
    # ------------------------------------------------------------------
    def ship_position(self, t: float) -> Position:
        """Ship position at time ``t``."""
        s = self.speed_mps * (t - self.t0)
        return Position(
            self.origin.x + s * math.cos(self.heading_rad),
            self.origin.y + s * math.sin(self.heading_rad),
        )

    def track_coordinates(self, point: Position) -> tuple[float, float]:
        """``(along, lateral)`` coordinates of ``point`` w.r.t. the track.

        ``along`` is the signed distance from ``origin`` along the
        heading; ``lateral`` is the signed perpendicular offset (positive
        to port, i.e. the +90 deg side of the heading).
        """
        dx = point.x - self.origin.x
        dy = point.y - self.origin.y
        c, s = math.cos(self.heading_rad), math.sin(self.heading_rad)
        along = dx * c + dy * s
        lateral = -dx * s + dy * c
        return along, lateral

    def lateral_distance(self, point: Position) -> float:
        """Unsigned perpendicular distance from the sailing line [m]."""
        return abs(self.track_coordinates(point)[1])

    def contains(self, point: Position, t: float) -> bool:
        """True when ``point`` lies inside the wake wedge at time ``t``."""
        along, lateral = self.track_coordinates(point)
        ship_along = self.speed_mps * (t - self.t0)
        behind = ship_along - along
        if behind <= 0:
            return False
        return abs(lateral) <= behind * math.tan(self.half_angle_rad)

    # ------------------------------------------------------------------
    # Timing
    # ------------------------------------------------------------------
    def closest_approach_time(self, point: Position) -> float:
        """Time at which the ship passes abeam of ``point``."""
        along, _ = self.track_coordinates(point)
        return self.t0 + along / self.speed_mps

    def arrival_time(self, point: Position) -> float:
        """Time at which the wedge front (cusp locus) reaches ``point``.

        The wedge boundary trails the ship at angle ``half_angle_rad``;
        a point at lateral distance ``d`` is first swept when the ship
        is ``d / tan(half_angle)`` past the abeam position, i.e.

        ``t_arrival = t_abeam + d / (V tan(theta_k))``.
        """
        _, lateral = self.track_coordinates(point)
        d = max(abs(lateral), MIN_ARRIVAL_LATERAL_M)
        delay = d / (self.speed_mps * math.tan(self.half_angle_rad))
        return self.closest_approach_time(point) + delay

    # ------------------------------------------------------------------
    # Amplitude and duration
    # ------------------------------------------------------------------
    def wave_height_at(self, point: Position) -> float:
        """Cusp (divergent) wave height at ``point`` via eq. 1 [m],
        with the distance clamped at :data:`MIN_HEIGHT_LATERAL_M`."""
        d = max(self.lateral_distance(point), MIN_HEIGHT_LATERAL_M)
        return divergent_wave_height(self._coeff, d)

    def wave_period(self) -> float:
        """Period of the divergent waves at the cusp locus [s]."""
        return cusp_wave_period(self.speed_mps, self.depth_m)

    def train_duration_at(self, point: Position) -> float:
        """Duration of the disturbance the wake inflicts on ``point`` [s].

        The paper observed 2-3 s at its 25 m deployment scale (Sec. V-A).
        Dispersion stretches the train slowly with distance; we model
        the duration as a fraction of the cusp period growing with the
        cube root of lateral distance, calibrated to ~2.5 s at 25 m for
        a 10-knot ship.
        """
        d = max(self.lateral_distance(point), 1.0)
        return self.wave_period() * (0.5 + 0.15 * d ** (1.0 / 3.0))

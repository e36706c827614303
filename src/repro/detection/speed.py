"""Ship speed and heading estimation (paper Sec. IV-C.2, eqs. 14-16).

Four nodes form two columns that straddle the sailing line (Fig. 10):
``S_i`` and ``S_i'`` in one column, ``S_j`` and ``S_j'`` in the other,
each column spanning one row gap ``D``.  Because the Kelvin cusp locus
trails the ship at the fixed angle ``theta ~= 20 deg``, the wake-front
arrival times ``t1..t4`` encode both the heading and the speed:

- ``alpha = arctan( (t2 + t4 - t1 - t3) / (t2 + t3 - t1 - t4) * tan 70 )``
- pair i:  ``v = D sin(70 + alpha) / ((t2 - t1) sin theta)``   (eq. 14/15)
- pair j:  ``v = D sin(alpha - 70) / ((t4 - t3) sin theta)``   (eq. 16)

(Both sides of eq. 16 are negative for ``alpha < 70``; the ratio is
positive.)  The reproduction validates these formulas against the
forward Kelvin arrival-time model: with exact timestamps and
``theta = 19 deg 28 min`` they invert it exactly; the paper's rounded
``theta = 20 deg`` plus buoy drift and onset jitter produce the +/-20 %
error band of Fig. 12.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.constants import SPEED_GEOMETRY_THETA_RAD
from repro.errors import EstimationError

_SEVENTY_RAD = math.radians(70.0)


@dataclass(frozen=True)
class SpeedEstimate:
    """Result of one eq.-16 inversion.

    ``direction`` is the coarse row-sweep direction (+1 = toward higher
    rows, -1 = toward lower rows) when known; see
    :func:`moving_direction`.
    """

    speed_pair_i_mps: float
    speed_pair_j_mps: float
    alpha_rad: float
    direction: int = 0

    @property
    def alpha_deg(self) -> float:
        """Estimated angle between sailing line and the rows [deg]."""
        return math.degrees(self.alpha_rad)

    @property
    def speed_mean_mps(self) -> float:
        """Midpoint of the two pairwise estimates."""
        return 0.5 * (self.speed_pair_i_mps + self.speed_pair_j_mps)


def estimate_heading_alpha_rad(
    t1: float, t2: float, t3: float, t4: float
) -> float:
    """The paper's closed form for the sailing angle alpha.

    ``alpha = arctan( (t2 + t4 - t1 - t3) / (t2 + t3 - t1 - t4) tan 70 )``.
    A zero denominator means the ship crossed the rows exactly
    perpendicularly (alpha = 90 deg is outside eq. 16's regime) and is
    reported as pi/2.
    """
    numerator = t2 + t4 - t1 - t3
    denominator = t2 + t3 - t1 - t4
    # Exact degeneracy test: eq. 16's perpendicular-crossing case is a
    # bit-exact zero of the timestamp sum, not a near-zero.
    if denominator == 0.0:  # lint: ignore[NUM001]
        return math.pi / 2.0
    return math.atan(numerator / denominator * math.tan(_SEVENTY_RAD))


def estimate_ship_speed(
    d_spacing_m: float,
    t1: float,
    t2: float,
    t3: float,
    t4: float,
    theta_rad: float = SPEED_GEOMETRY_THETA_RAD,
) -> SpeedEstimate:
    """Invert eqs. 14-16 from the four wake-front timestamps.

    ``t1``/``t2`` are the detections at the near/far node of column i
    (the column on the port side of the track); ``t3``/``t4`` the same
    for column j on the starboard side.  ``d_spacing_m`` is the row
    spacing D.

    Raises :class:`EstimationError` for degenerate timestamp sets (a
    pair detected simultaneously, or geometry outside eq. 16's regime).
    """
    if d_spacing_m <= 0:
        raise EstimationError(f"D must be positive, got {d_spacing_m}")
    if theta_rad <= 0 or theta_rad >= math.pi / 2:
        raise EstimationError(f"theta must be in (0, pi/2), got {theta_rad}")
    dt_i = t2 - t1
    dt_j = t4 - t3
    # Exact simultaneity: identical detection timestamps (same sample
    # instant) are the degenerate input, not merely close ones.
    if dt_i == 0.0 or dt_j == 0.0:  # lint: ignore[NUM001]
        raise EstimationError(
            "simultaneous detections in a column; cannot estimate speed"
        )
    alpha = estimate_heading_alpha_rad(t1, t2, t3, t4)
    sin_theta = math.sin(theta_rad)
    v_i = d_spacing_m * math.sin(_SEVENTY_RAD + alpha) / (dt_i * sin_theta)
    v_j = d_spacing_m * math.sin(alpha - _SEVENTY_RAD) / (dt_j * sin_theta)
    if v_i <= 0 or v_j <= 0:
        raise EstimationError(
            f"negative speed solution (v_i={v_i:.2f}, v_j={v_j:.2f}); "
            "timestamps inconsistent with the Fig. 10 geometry"
        )
    return SpeedEstimate(
        speed_pair_i_mps=v_i, speed_pair_j_mps=v_j, alpha_rad=alpha
    )


def moving_direction(t1: float, t2: float, t3: float, t4: float) -> int:
    """Coarse moving direction from the timestamps (Sec. IV-C.2).

    "As for the moving direction of the ship, it is easy to obtain with
    the timestamps of the four nodes": +1 when the far-row nodes
    (``t2``, ``t4``) were hit after the near-row nodes (the ship moved
    from the near row toward the far row), -1 for the opposite sweep.
    """
    near_mean = 0.5 * (t1 + t3)
    far_mean = 0.5 * (t2 + t4)
    return 1 if far_mean >= near_mean else -1

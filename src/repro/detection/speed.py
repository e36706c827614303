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
from typing import TYPE_CHECKING, Iterable, Optional

from repro.constants import SPEED_GEOMETRY_THETA_RAD
from repro.detection.reports import NodeReport
from repro.errors import EstimationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.detection.cluster import TravelLine

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


def four_node_speed_estimate(
    reports: Iterable[NodeReport], track: "TravelLine"
) -> Optional[SpeedEstimate]:
    """Apply eq. 16 when the Fig. 10 four-node condition holds.

    Needs two grid columns straddling ``track``, each reporting in the
    same two adjacent rows.  Per grid cell only the highest-energy
    report is used ("we only record the reports which have the highest
    detected energy", Sec. V-B.2); of the qualifying four-node sets the
    one with the largest summed energy wins (ties: the first found in
    ``reports`` order).  Returns None when no set qualifies or every
    qualifying set is degenerate.
    """
    by_cell: dict[tuple[int, int], NodeReport] = {}
    for r in reports:
        key = (r.row, r.column)
        best_in_cell = by_cell.get(key)
        if best_in_cell is None or r.energy > best_in_cell.energy:
            by_cell[key] = r
    columns: dict[int, dict[int, NodeReport]] = {}
    for (row, col), r in by_cell.items():
        columns.setdefault(col, {})[row] = r

    def side(report: NodeReport) -> int:
        s = track.signed_distance(report.position)
        # Exact sign: a node precisely on the track line belongs to
        # neither side, so the zero case must be bit-exact.
        return 0 if s == 0.0 else (1 if s > 0 else -1)  # lint: ignore[NUM001]

    best: Optional[SpeedEstimate] = None
    best_energy = -1.0
    for ci, rows_i in columns.items():
        for cj, rows_j in columns.items():
            if ci == cj:
                continue
            shared = sorted(set(rows_i) & set(rows_j))
            for r_lo, r_hi in zip(shared, shared[1:]):
                if r_hi != r_lo + 1:
                    continue
                # Fig. 10 needs column i fully to port and column j
                # fully to starboard over the two rows used.
                if not (
                    side(rows_i[r_lo]) > 0
                    and side(rows_i[r_hi]) > 0
                    and side(rows_j[r_lo]) < 0
                    and side(rows_j[r_hi]) < 0
                ):
                    continue
                a, b = rows_i[r_lo], rows_i[r_hi]
                # The port column is swept outward along the travel
                # direction: t1 is its earlier detection, and t3 is
                # the starboard node in t1's row.
                near_i, far_i = (a, b) if a.onset_time <= b.onset_time else (b, a)
                near_j = rows_j[near_i.row]
                far_j = rows_j[far_i.row]
                times = (
                    near_i.onset_time,
                    far_i.onset_time,
                    near_j.onset_time,
                    far_j.onset_time,
                )
                spacing = near_i.position.distance_to(far_i.position)
                try:
                    est = estimate_ship_speed(spacing, *times)
                except EstimationError:
                    continue
                energy = near_i.energy + far_i.energy + near_j.energy + far_j.energy
                if energy > best_energy:
                    # "As for the moving direction of the ship, it is
                    # easy to obtain with the timestamps of the four
                    # nodes" (Sec. IV-C.2).
                    best = SpeedEstimate(
                        speed_pair_i_mps=est.speed_pair_i_mps,
                        speed_pair_j_mps=est.speed_pair_j_mps,
                        alpha_rad=est.alpha_rad,
                        direction=moving_direction(*times),
                    )
                    best_energy = energy
    return best

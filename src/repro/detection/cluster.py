"""Cluster-level detection (paper Sec. IV-C).

Two cluster layers coexist:

- **static clusters** partition the deployed grid into geographic
  "cells" once, right after deployment;
- **temporary clusters** are set up on demand: the first node to raise
  a positive alarm becomes temporary cluster head, informs its
  neighbours within ``TEMP_CLUSTER_HOPS`` hops, collects their positive
  reports for a timeout, and either cancels (false alarm) or evaluates
  the spatial/temporal correlation coefficient ``C`` (eq. 13) and, when
  ``C`` clears the 0.4 threshold, reports to its static cluster head —
  and estimates the intruder's speed when the Fig. 10 four-node
  condition holds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

from repro.constants import (
    CORRELATION_DECISION_THRESHOLD,
    TEMP_CLUSTER_HOPS,
)
from repro.detection.correlation import cluster_correlation, majority_side
from repro.detection.reports import ClusterReport, NodeReport, RowObservation
from repro.detection.speed import SpeedEstimate, four_node_speed_estimate
from repro.errors import ConfigurationError, GeometryError
from repro.types import Position


# ----------------------------------------------------------------------
# Travel-line hypothesis
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TravelLine:
    """A (hypothesised) ship sailing line: a point plus a heading."""

    point: Position
    heading_rad: float

    def signed_distance(self, position: Position) -> float:
        """Signed perpendicular distance; positive on the port side."""
        dx = position.x - self.point.x
        dy = position.y - self.point.y
        return -dx * math.sin(self.heading_rad) + dy * math.cos(self.heading_rad)

    def distance(self, position: Position) -> float:
        """Unsigned perpendicular distance [m]."""
        return abs(self.signed_distance(position))

    @classmethod
    def fit_from_reports(cls, reports: Sequence[NodeReport]) -> "TravelLine":
        """Estimate the travel line from the reports themselves.

        Per row, the highest-energy report marks the closest approach of
        the sailing line (eq. 1: energy decays with distance); a
        least-squares line through those points is the hypothesis a
        cluster head can form without ground truth.
        """
        by_row: dict[int, NodeReport] = {}
        for r in reports:
            best = by_row.get(r.row)
            if best is None or r.energy > best.energy:
                by_row[r.row] = r
        anchors = [by_row[k].position for k in sorted(by_row)]
        if len(anchors) < 2:
            raise GeometryError(
                "need reports in at least two rows to fit a travel line"
            )
        xs = [p.x for p in anchors]
        ys = [p.y for p in anchors]
        n = len(anchors)
        mx = sum(xs) / n
        my = sum(ys) / n
        sxx = sum((x - mx) ** 2 for x in xs)
        syy = sum((y - my) ** 2 for y in ys)
        sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
        # Principal axis of the anchor cloud = sailing direction.
        heading = 0.5 * math.atan2(2.0 * sxy, sxx - syy)
        # atan2 form gives the major axis only when sxx >= syy; fix up.
        if syy > sxx and abs(sxy) < 1e-12:
            heading = math.pi / 2.0
        return cls(point=Position(mx, my), heading_rad=heading)


# ----------------------------------------------------------------------
# Static clusters
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class StaticCluster:
    """One geographic cell formed after deployment (Sec. IV-C.1)."""

    cluster_id: int
    member_ids: tuple[int, ...]
    head_id: int

    def __post_init__(self) -> None:
        if self.head_id not in self.member_ids:
            raise ConfigurationError("static cluster head must be a member")


def partition_static_clusters(
    positions: dict[int, Position], cell_size_m: float
) -> list[StaticCluster]:
    """Partition nodes into square geographic cells.

    The node nearest its cell's centroid becomes the static head (the
    paper allows "either a normal node or a high energy node").
    """
    if cell_size_m <= 0:
        raise ConfigurationError(
            f"cell_size_m must be positive, got {cell_size_m}"
        )
    if not positions:
        return []
    cells: dict[tuple[int, int], list[int]] = {}
    for node_id, pos in positions.items():
        key = (
            int(math.floor(pos.x / cell_size_m)),
            int(math.floor(pos.y / cell_size_m)),
        )
        cells.setdefault(key, []).append(node_id)
    clusters: list[StaticCluster] = []
    for cluster_id, key in enumerate(sorted(cells)):
        members = sorted(cells[key])
        cx = (key[0] + 0.5) * cell_size_m
        cy = (key[1] + 0.5) * cell_size_m
        head = min(
            members,
            key=lambda nid: positions[nid].distance_to(Position(cx, cy)),
        )
        clusters.append(
            StaticCluster(
                cluster_id=cluster_id,
                member_ids=tuple(members),
                head_id=head,
            )
        )
    return clusters


# ----------------------------------------------------------------------
# Temporary clusters
# ----------------------------------------------------------------------
class ClusterEvent(Enum):
    """Lifecycle outcomes of a temporary cluster."""

    CANCELLED_TOO_FEW = "cancelled-too-few-reports"
    REJECTED_LOW_CORRELATION = "rejected-low-correlation"
    CONFIRMED = "confirmed"


@dataclass(frozen=True)
class TemporaryClusterConfig:
    """Tunables of the temporary-cluster state machine."""

    hops: int = TEMP_CLUSTER_HOPS
    #: The wedge front needs ``grid_span * cot(19.47 deg) / V`` seconds
    #: to sweep the whole field (~70 s for 10 knots over the paper's
    #: 125 m grid); the collection window must cover that sweep.
    collection_timeout_s: float = 120.0
    #: "If the cluster head has not received any reporting within a
    #: certain period of time, it will cancel the temporary cluster" —
    #: a lone initiator gives up after this much quiet, so an isolated
    #: false alarm cannot hold the cluster open across a later event.
    quiet_timeout_s: float = 30.0
    min_reports: int = 5
    #: "If the cluster consists of at least 4 rows of nodes, the
    #: cluster-head can report the detection to the sink when the
    #: correlation coefficient C exceeds 0.4" (Sec. V-B.1): clusters
    #: spanning fewer reporting rows are never confirmed — a pair of
    #: single-report rows would otherwise score a perfect C.
    min_rows: int = 4
    correlation_threshold: float = CORRELATION_DECISION_THRESHOLD
    #: Graceful degradation: when True and the head knows how many
    #: members the setup flood reached (``expected_members``), a
    #: sub-quorum cluster whose expected members fell silent (node
    #: crashes, dead batteries, lost reports) is still evaluated on
    #: the relaxed floors below instead of hard-failing — the fused
    #: report is then flagged ``degraded``.
    allow_degraded: bool = False
    degraded_min_reports: int = 3
    degraded_min_rows: int = 2

    def __post_init__(self) -> None:
        if self.hops < 1:
            raise ConfigurationError(f"hops must be >= 1, got {self.hops}")
        if self.collection_timeout_s <= 0:
            raise ConfigurationError(
                f"timeout must be positive, got {self.collection_timeout_s}"
            )
        if not 0 < self.quiet_timeout_s <= self.collection_timeout_s:
            raise ConfigurationError(
                "quiet_timeout_s must be in (0, collection_timeout_s], got "
                f"{self.quiet_timeout_s}"
            )
        if self.min_reports < 1:
            raise ConfigurationError(
                f"min_reports must be >= 1, got {self.min_reports}"
            )
        if self.min_rows < 1:
            raise ConfigurationError(
                f"min_rows must be >= 1, got {self.min_rows}"
            )
        if not 0.0 <= self.correlation_threshold <= 1.0:
            raise ConfigurationError(
                "correlation_threshold must be in [0, 1], got "
                f"{self.correlation_threshold}"
            )
        if self.degraded_min_reports < 1:
            raise ConfigurationError(
                "degraded_min_reports must be >= 1, got "
                f"{self.degraded_min_reports}"
            )
        if self.degraded_min_rows < 1:
            raise ConfigurationError(
                f"degraded_min_rows must be >= 1, got {self.degraded_min_rows}"
            )

    @property
    def effective_degraded_min_reports(self) -> int:
        """The degraded report floor, never above the healthy floor."""
        return min(self.degraded_min_reports, self.min_reports)

    @property
    def effective_degraded_min_rows(self) -> int:
        """The degraded row floor, never above the healthy floor."""
        return min(self.degraded_min_rows, self.min_rows)


class TemporaryCluster:
    """One on-demand cluster rooted at the first alarming node.

    Drive it with :meth:`add_report` while the collection window is
    open, then call :meth:`evaluate` (normally at
    ``initiating_report.onset_time + config.collection_timeout_s``).
    """

    def __init__(
        self,
        initiator: NodeReport,
        config: TemporaryClusterConfig | None = None,
    ) -> None:
        self.config = config if config is not None else TemporaryClusterConfig()
        self.head_id = initiator.node_id
        self.opened_at = initiator.onset_time
        self._reports: dict[int, NodeReport] = {initiator.node_id: initiator}
        self._closed = False
        #: How many members the setup flood reached (set by the network
        #: layer when known); lets :meth:`evaluate` distinguish "nobody
        #: else sensed the event" from "expected members fell silent".
        self.expected_members: Optional[int] = None

    @property
    def deadline(self) -> float:
        """Local time at which collection closes.

        While only the initiator has reported, the cluster lives on the
        short quiet timeout; the first member report extends it to the
        full collection window.
        """
        if len(self._reports) <= 1:
            return self.opened_at + self.config.quiet_timeout_s
        return self.opened_at + self.config.collection_timeout_s

    @property
    def reports(self) -> tuple[NodeReport, ...]:
        """Reports collected so far in onset order, one per node.

        Each node's is its highest-energy report, kept whole
        (:meth:`add_report`).
        """
        return tuple(
            sorted(self._reports.values(), key=lambda r: r.onset_time)
        )

    @property
    def closed(self) -> bool:
        """True once :meth:`evaluate` has run."""
        return self._closed

    def add_report(self, report: NodeReport) -> bool:
        """Collect a member report; returns False when out of window.

        Duplicate reports from one node keep the higher-energy one
        whole — onset and energy must stay from the same physical event
        ("we only record the reports which have the highest detected
        energy", Sec. V-B.2), otherwise a pre-event false alarm's onset
        would be paired with the wake's energy and corrupt the eq. 9
        time ordering.
        """
        if self._closed or report.onset_time > self.deadline:
            return False
        existing = self._reports.get(report.node_id)
        if existing is None or report.energy > existing.energy:
            self._reports[report.node_id] = report
        return True

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def rows_for_correlation(
        self, track: TravelLine
    ) -> list[list[RowObservation]]:
        """Project the collected reports onto eq. 9-12 row observations.

        Rows are taken from the reports' grid row indices; every row
        between the smallest and largest reporting row is included, so
        silent rows inside the swept band contribute their zero (see
        :mod:`repro.detection.correlation`).

        Per the paper, "all the disturbed nodes can be separated into
        two sides [of the travel line] ... we only consider one side of
        the nodes": each row keeps only its better-populated side, which
        removes the near-tie distances of nodes straddling the line.
        """
        by_row: dict[int, list[RowObservation]] = {}
        for r in self._reports.values():
            by_row.setdefault(r.row, []).append(
                RowObservation(
                    node_id=r.node_id,
                    distance_to_track=track.distance(r.position),
                    onset_time=r.onset_time,
                    energy=r.energy,
                    side=(
                        1
                        if track.signed_distance(r.position) >= 0
                        else -1
                    ),
                )
            )
        lo = min(by_row)
        hi = max(by_row)
        return [
            majority_side(by_row.get(i, [])) for i in range(lo, hi + 1)
        ]

    def evaluate(
        self, track: TravelLine | None = None
    ) -> tuple[ClusterEvent, Optional[ClusterReport]]:
        """Close the cluster and fuse the collected reports.

        ``track`` supplies the travel-line hypothesis; by default it is
        fitted from the reports themselves
        (:meth:`TravelLine.fit_from_reports`).
        """
        self._closed = True
        reports = self.reports
        min_rows = self.config.min_rows
        degraded = False
        if len(reports) < self.config.min_reports:
            # Graceful degradation (paper Sec. IV-C's fault-absorption
            # claim, made explicit): when the setup flood reached more
            # members than reported back, the silence is evidence of
            # faults — crashed nodes, depleted batteries, lost frames —
            # not of a quiet sea.  Re-weight the quorum to what is
            # actually alive instead of hard-failing, and flag the
            # fused report so the sink can discount it.
            silent = (
                self.expected_members is not None
                and len(self._reports) < self.expected_members + 1
            )
            if (
                self.config.allow_degraded
                and silent
                and len(reports)
                >= self.config.effective_degraded_min_reports
            ):
                degraded = True
                min_rows = self.config.effective_degraded_min_rows
            else:
                return ClusterEvent.CANCELLED_TOO_FEW, None
        if track is None:
            try:
                track = TravelLine.fit_from_reports(reports)
            except GeometryError:
                return ClusterEvent.CANCELLED_TOO_FEW, None
        rows = self.rows_for_correlation(track)
        cnt, cne, c = cluster_correlation(rows)
        populated_rows = sum(1 for row in rows if row)
        confirmable = (
            populated_rows >= min_rows
            and c >= self.config.correlation_threshold
        )
        speed: Optional[SpeedEstimate] = None
        if confirmable:
            speed = four_node_speed_estimate(self._reports.values(), track)
        report = ClusterReport(
            head_id=self.head_id,
            reports=reports,
            time_correlation=min(cnt, 1.0),
            energy_correlation=min(cne, 1.0),
            correlation=min(c, 1.0),
            detection_time=max(r.onset_time for r in reports),
            speed_estimate_mps=speed.speed_mean_mps if speed else None,
            heading_alpha_deg=speed.alpha_deg if speed else None,
            moving_direction=speed.direction if speed else 0,
            degraded=degraded,
        )
        if confirmable:
            return ClusterEvent.CONFIRMED, report
        return ClusterEvent.REJECTED_LOW_CORRELATION, report

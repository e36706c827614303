"""Sink-level fusion (paper Sec. IV-A).

"The sink-level detection involves processing the data sent from local
head nodes, and the final decision will be reported to the external
user."  The sink merges cluster reports that describe the same physical
event (close in time), confirms an intrusion when any merged group
clears the correlation threshold, and aggregates the speed estimates.
"""

from __future__ import annotations

from typing import Optional

from repro.constants import CORRELATION_DECISION_THRESHOLD
from repro.detection.reports import ClusterReport, SinkDecision
from repro.telemetry.events import CAT_DETECTION
from repro.telemetry.tracer import Tracer


#: Cluster reports this close in time [s] describe one event.
MERGE_WINDOW_S = 60.0


class Sink:
    """The network sink: accumulates cluster reports, emits decisions.

    A merged group confirms an intrusion when one of its reports clears
    :data:`~repro.constants.CORRELATION_DECISION_THRESHOLD`.
    """

    def __init__(self, tracer: Optional[Tracer] = None) -> None:
        self.tracer = tracer
        self._pending: list[ClusterReport] = []
        self._decisions: list[SinkDecision] = []

    @property
    def decisions(self) -> tuple[SinkDecision, ...]:
        """Decisions finalised so far."""
        return tuple(self._decisions)

    @property
    def pending_reports(self) -> tuple[ClusterReport, ...]:
        """Cluster reports awaiting their merge window to close."""
        return tuple(self._pending)

    def receive(self, report: ClusterReport) -> SinkDecision | None:
        """Ingest one cluster report.

        Reports within :data:`MERGE_WINDOW_S` of the pending group describe
        the same event and accumulate; a report beyond the window first
        finalises the pending group (returning its decision) and then
        opens a new group.
        """
        if self.tracer is not None:
            self.tracer.emit(
                CAT_DETECTION,
                "cluster_report",
                sim_time_s=report.detection_time,
                node_id=report.head_id,
                correlation=report.correlation,
                n_reports=len(report.reports),
                degraded=report.degraded,
            )
        if self._pending and (
            report.detection_time
            - max(r.detection_time for r in self._pending)
            > MERGE_WINDOW_S
        ):
            decision = self._finalize()
            self._pending = [report]
            return decision
        self._pending.append(report)
        return None

    def flush(self) -> SinkDecision | None:
        """Finalise the pending group (end of scenario or of epoch)."""
        if not self._pending:
            return None
        return self._finalize()

    def _finalize(self) -> SinkDecision:
        group = tuple(
            sorted(self._pending, key=lambda r: r.detection_time)
        )
        self._pending = []
        confirmed = [
            r
            for r in group
            if r.correlation >= CORRELATION_DECISION_THRESHOLD
        ]
        speeds = [
            r.speed_estimate_mps
            for r in confirmed
            if r.speed_estimate_mps is not None
        ]
        headings = [
            r.heading_alpha_deg
            for r in confirmed
            if r.heading_alpha_deg is not None
        ]
        basis = confirmed if confirmed else group
        decision = SinkDecision(
            intrusion=bool(confirmed),
            time=max(r.detection_time for r in group),
            cluster_reports=group,
            speed_estimate_mps=(
                sum(speeds) / len(speeds) if speeds else None
            ),
            heading_alpha_deg=(
                sum(headings) / len(headings) if headings else None
            ),
            degraded=any(r.degraded for r in basis),
        )
        self._decisions.append(decision)
        if self.tracer is not None:
            self.tracer.emit(
                CAT_DETECTION,
                "sink_decision",
                sim_time_s=decision.time,
                intrusion=decision.intrusion,
                n_cluster_reports=len(group),
                speed_estimate_mps=decision.speed_estimate_mps,
                degraded=decision.degraded,
            )
        return decision

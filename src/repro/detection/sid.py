"""Algorithm SID: the paper's per-node pseudocode, wired end to end.

The node-side algorithm (paper Sec. IV-D) has four procedures:

- **Initialization** — sample ``u`` data, compute the eq.-4 statistics,
  start detecting;
- **DetectIntrusion** — per window: compute ``D_i``; if ``af`` passes
  the threshold either set up a temporary cluster or report to the
  existing temporary cluster head; otherwise fold the window into the
  eq.-5 baseline;
- **SetUpTempCluster** — become head, inform nodes within six hops,
  start the evaluation timer;
- **SpaceTimeDataProcessing** — when the timer fires, evaluate the
  spatial/temporal correlations; report to the local (static) cluster
  head when correlated, and compute the ship speed (eq. 16) when the
  four-node condition holds.

:class:`SIDNode` is a *pure state machine*: it consumes window
detection outcomes and peer messages and returns :class:`SIDAction`
values describing what the node wants transmitted.  Only the
discrete-event network stack drives it, one per
:class:`repro.network.nodeproc.NetworkNode`.  The offline and streaming
runners replay cluster formation with
:func:`repro.scenario.runner.fuse_sequential_clusters` over the same
:class:`~repro.detection.cluster.TemporaryCluster`, so cluster
evaluation is identical with and without a lossy radio in between.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional, Union

from repro.detection.cluster import (
    ClusterEvent,
    TemporaryCluster,
    TemporaryClusterConfig,
)
from repro.detection.node_detector import NodeDetector, NodeDetectorConfig
from repro.detection.reports import ClusterReport, NodeReport
from repro.errors import ConfigurationError, InternalError, ProtocolError
from repro.telemetry.events import CAT_DETECTION
from repro.telemetry.tracer import Tracer
from repro.types import Position


class SIDState(Enum):
    """Top-level node states."""

    INITIALIZING = "initializing"
    MONITORING = "monitoring"
    TEMP_CLUSTER_HEAD = "temp-cluster-head"
    TEMP_CLUSTER_MEMBER = "temp-cluster-member"


# ----------------------------------------------------------------------
# Actions the node asks its network layer to perform
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SetupClusterAction:
    """Broadcast cluster setup to neighbours within ``hops`` hops."""

    initiator: NodeReport
    hops: int


@dataclass(frozen=True)
class MemberReportAction:
    """Unicast a positive report to the temporary cluster head."""

    head_id: int
    report: NodeReport


@dataclass(frozen=True)
class ClusterResultAction:
    """Send a fused cluster report toward the static head / sink."""

    report: ClusterReport
    event: ClusterEvent


@dataclass(frozen=True)
class CancelClusterAction:
    """Tear the temporary cluster down (false alarm)."""

    head_id: int


SIDAction = Union[
    SetupClusterAction,
    MemberReportAction,
    ClusterResultAction,
    CancelClusterAction,
]


@dataclass(frozen=True)
class SIDNodeConfig:
    """Bundled configuration for one SID node."""

    detector: NodeDetectorConfig = field(default_factory=NodeDetectorConfig)
    cluster: TemporaryClusterConfig = field(
        default_factory=TemporaryClusterConfig
    )
    #: Membership in a temporary cluster expires after this long without
    #: the head confirming (protects members when the head dies).  Must
    #: exceed the cluster collection window.
    membership_ttl_s: float = 180.0

    def __post_init__(self) -> None:
        if self.membership_ttl_s <= self.cluster.collection_timeout_s:
            raise ConfigurationError(
                f"membership_ttl_s ({self.membership_ttl_s}) must exceed "
                "the cluster collection window "
                f"({self.cluster.collection_timeout_s})"
            )


class SIDNode:
    """One node running Algorithm SID."""

    def __init__(
        self,
        node_id: int,
        position: Position,
        config: SIDNodeConfig | None = None,
        row: int = 0,
        column: int = 0,
    ) -> None:
        self.config = config if config is not None else SIDNodeConfig()
        self.node_id = node_id
        self.position = position
        self.detector = NodeDetector(
            node_id, position, self.config.detector, row=row, column=column
        )
        self._state = SIDState.INITIALIZING
        self._cluster: Optional[TemporaryCluster] = None
        self._member_of: Optional[int] = None
        self._member_since: float = 0.0
        #: Whether the eq. 4 baseline has seeded, as the last window
        #: outcome reported it (cleared by a cold restart).
        self._seeded = False
        #: Optional telemetry tracer, installed by the network layer;
        #: None keeps the detection path free of emission overhead.
        self.tracer: Optional[Tracer] = None

    def cold_restart(self) -> None:
        """Forget all RAM state, as a true (non-watchdog) reboot would.

        The adaptive eq. 5 baseline, any temporary-cluster role and any
        membership are lost; the node re-enters INITIALIZING and must
        re-seed its baseline from ``init_windows`` fresh windows before
        it can detect again (the re-warm-up blind window the
        self-healing runtime meters).
        """
        self.detector.reset()
        self._state = SIDState.INITIALIZING
        self._cluster = None
        self._member_of = None
        self._member_since = 0.0
        self._seeded = False

    @property
    def state(self) -> SIDState:
        """Current node state."""
        if not self._seeded:
            return SIDState.INITIALIZING
        if self._cluster is not None and not self._cluster.closed:
            return SIDState.TEMP_CLUSTER_HEAD
        if self._member_of is not None:
            return SIDState.TEMP_CLUSTER_MEMBER
        return SIDState.MONITORING

    @property
    def cluster_deadline(self) -> Optional[float]:
        """Deadline of the open temporary cluster this node heads.

        None when it heads none.  :meth:`on_timer` evaluates the cluster
        at the first call at or after this time.  A cluster opens only
        at one of the node's own reports, and its deadline only moves
        later (the first member report extends it).
        """
        cluster = self._cluster
        if cluster is None or cluster.closed:
            return None
        return cluster.deadline

    # ------------------------------------------------------------------
    # DetectIntrusion
    # ------------------------------------------------------------------
    def on_window_outcome(
        self,
        report: Optional[NodeReport],
        t0: float,
        initialized: bool = True,
    ) -> list[SIDAction]:
        """DetectIntrusion fed one window's detection outcome.

        The outcome (a report or None, plus whether the baseline had
        seeded by that window) comes from the node's own detector or
        from the fleet-vectorized engine, which runs eqs. 4-8 for the
        whole deployment ahead of the discrete-event run; either way it
        takes the same cluster-protocol branches.
        """
        self.expire_membership(t0)
        if initialized:
            self._seeded = True
        return self._actions_for_report(report)

    def _actions_for_report(
        self, report: Optional[NodeReport]
    ) -> list[SIDAction]:
        if report is None:
            return []
        if self.tracer is not None:
            # The eq. 9 alarm: this window's anomaly frequency cleared
            # the node threshold and becomes protocol traffic.
            self.tracer.emit(
                CAT_DETECTION,
                "alarm",
                sim_time_s=report.onset_time,
                node_id=self.node_id,
                energy=report.energy,
                anomaly_frequency=report.anomaly_frequency,
            )
        if self.state == SIDState.TEMP_CLUSTER_HEAD:
            if self._cluster is None:
                raise InternalError(
                    "TEMP_CLUSTER_HEAD state without an open cluster"
                )
            self._cluster.add_report(report)
            return []
        if self.state == SIDState.TEMP_CLUSTER_MEMBER:
            if self._member_of is None:
                raise InternalError(
                    "TEMP_CLUSTER_MEMBER state without a recorded head"
                )
            return [
                MemberReportAction(head_id=self._member_of, report=report)
            ]
        # NotInTempCluster -> SetUpTempCluster
        self._cluster = TemporaryCluster(report, self.config.cluster)
        return [
            SetupClusterAction(
                initiator=report, hops=self.config.cluster.hops
            )
        ]

    # ------------------------------------------------------------------
    # Peer messages
    # ------------------------------------------------------------------
    def note_expected_members(self, n: int) -> None:
        """Record how many members the setup flood reached.

        Called by the network layer after it fans the SetUpTempCluster
        announcement out; lets the cluster's deadline evaluation tell
        silent-but-expected members (faults) apart from a quiet sea.
        """
        if self._cluster is not None and not self._cluster.closed:
            self._cluster.expected_members = n

    def on_cluster_setup(self, head_id: int, t: float) -> None:
        """A neighbour announced a temporary cluster; join as member.

        A node already heading its own cluster ignores the invite (the
        two heads' reports still reach the sink independently).
        """
        if head_id == self.node_id:
            raise ProtocolError("node received its own cluster setup")
        if self.state == SIDState.TEMP_CLUSTER_HEAD:
            return
        self._member_of = head_id
        self._member_since = t

    def on_cluster_cancel(self, head_id: int) -> None:
        """The head cancelled; leave the cluster."""
        if self._member_of == head_id:
            self._member_of = None

    def on_member_report(self, report: NodeReport) -> None:
        """Head side: collect a member's positive report."""
        if self._cluster is None or self._cluster.closed:
            # Late report after evaluation - drop (paper: reports must
            # arrive "within a certain period of time").
            return
        self._cluster.add_report(report)

    # ------------------------------------------------------------------
    # SpaceTimeDataProcessing
    # ------------------------------------------------------------------
    def on_timer(self, t: float) -> list[SIDAction]:
        """Evaluation timer tick; fires SpaceTimeDataProcessing when due."""
        self.expire_membership(t)
        if self._cluster is None or self._cluster.closed:
            return []
        if t < self._cluster.deadline:
            return []
        # An online head knows no ground-truth sailing line, so the
        # cluster fits one from its own reports.
        event, report = self._cluster.evaluate()
        head_id = self.node_id
        self._cluster = None
        if event == ClusterEvent.CONFIRMED and report is not None:
            # Only correlated detections travel to the sink (Sec. V-B.1);
            # everything else tears the temporary cluster down.
            return [
                ClusterResultAction(report=report, event=event),
                CancelClusterAction(head_id=head_id),
            ]
        return [CancelClusterAction(head_id=head_id)]

    def expire_membership(self, t: float) -> None:
        """Leave a temporary cluster joined more than the TTL before ``t``.

        Every window outcome and timer tick runs this check first.
        """
        if (
            self._member_of is not None
            and t - self._member_since > self.config.membership_ttl_s
        ):
            self._member_of = None

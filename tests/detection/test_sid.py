"""Tests for the SIDNode state machine (the paper's Algorithm SID)."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError, ProtocolError
from repro.detection.cluster import TemporaryClusterConfig
from repro.detection.node_detector import NodeDetectorConfig
from repro.detection.reports import NodeReport
from repro.detection.sid import (
    CancelClusterAction,
    ClusterResultAction,
    MemberReportAction,
    SIDNode,
    SIDNodeConfig,
    SIDState,
    SetupClusterAction,
)
from repro.types import Position


def _config(**cluster_kw):
    cluster = dict(
        collection_timeout_s=60.0,
        quiet_timeout_s=20.0,
        min_reports=2,
        min_rows=1,
    )
    cluster.update(cluster_kw)
    return SIDNodeConfig(
        detector=NodeDetectorConfig(
            m=2.0, af_threshold=0.3, window_s=2.0, init_windows=2
        ),
        cluster=TemporaryClusterConfig(**cluster),
    )


def _node(node_id=0, **kw):
    return SIDNode(node_id, Position(0, 0), _config(**kw), row=0, column=0)


def _quiet(rng, n=100):
    return rng.uniform(0.0, 1.0, n)


def _burst(rng, n=100):
    return _quiet(rng, n) + 10.0


def _feed(node, a_window, t0):
    """Detect one window on the node's own detector; replay the outcome."""
    report = node.detector.process_window(a_window, t0)
    return node.on_window_outcome(report, t0, node.detector.initialized)


def _init(node, rng, t0=0.0):
    """Run the Initialization procedure (2 windows)."""
    _feed(node, _quiet(rng), t0)
    _feed(node, _quiet(rng), t0 + 2.0)


def _member_report(node_id, t):
    return NodeReport(
        node_id=node_id,
        position=Position(25.0, 0.0),
        onset_time=t,
        energy=8.0,
        anomaly_frequency=0.9,
    )


class TestLifecycle:
    def test_starts_initializing(self, rng):
        node = _node()
        assert node.state == SIDState.INITIALIZING

    def test_monitoring_after_init(self, rng):
        node = _node()
        _init(node, rng)
        assert node.state == SIDState.MONITORING

    def test_detection_sets_up_cluster(self, rng):
        node = _node()
        _init(node, rng)
        actions = _feed(node, _burst(rng), 4.0)
        assert len(actions) == 1
        assert isinstance(actions[0], SetupClusterAction)
        assert node.state == SIDState.TEMP_CLUSTER_HEAD

    def test_member_reports_to_head(self, rng):
        node = _node()
        _init(node, rng)
        node.on_cluster_setup(head_id=9, t=4.0)
        assert node.state == SIDState.TEMP_CLUSTER_MEMBER
        actions = _feed(node, _burst(rng), 6.0)
        assert len(actions) == 1
        assert isinstance(actions[0], MemberReportAction)
        assert actions[0].head_id == 9

    def test_head_ignores_invites(self, rng):
        node = _node()
        _init(node, rng)
        _feed(node, _burst(rng), 4.0)
        node.on_cluster_setup(head_id=9, t=5.0)
        assert node.state == SIDState.TEMP_CLUSTER_HEAD

    def test_own_setup_rejected(self, rng):
        node = _node(7)
        with pytest.raises(ProtocolError):
            node.on_cluster_setup(head_id=7, t=0.0)

    def test_cancel_releases_member(self, rng):
        node = _node()
        _init(node, rng)
        node.on_cluster_setup(head_id=9, t=4.0)
        node.on_cluster_cancel(head_id=9)
        assert node.state == SIDState.MONITORING

    def test_cancel_from_other_head_ignored(self, rng):
        node = _node()
        _init(node, rng)
        node.on_cluster_setup(head_id=9, t=4.0)
        node.on_cluster_cancel(head_id=5)
        assert node.state == SIDState.TEMP_CLUSTER_MEMBER

    def test_membership_expires(self, rng):
        node = _node()
        _init(node, rng)
        node.on_cluster_setup(head_id=9, t=4.0)
        node.on_timer(4.0 + node.config.membership_ttl_s + 1.0)
        assert node.state == SIDState.MONITORING

    def test_membership_ttl_must_exceed_collection_window(self):
        # A membership that lapsed before its head's collection window
        # closed would drop the member mid-cluster.
        cluster = TemporaryClusterConfig(collection_timeout_s=60.0)
        with pytest.raises(ConfigurationError, match="membership_ttl_s"):
            SIDNodeConfig(membership_ttl_s=1.0)
        with pytest.raises(ConfigurationError, match="membership_ttl_s"):
            SIDNodeConfig(cluster=cluster, membership_ttl_s=60.0)
        assert SIDNodeConfig(cluster=cluster, membership_ttl_s=60.5)


class TestHeadEvaluation:
    def test_lone_head_cancels_after_quiet_timeout(self, rng):
        node = _node()
        _init(node, rng)
        _feed(node, _burst(rng), 4.0)
        assert node.on_timer(10.0) == []  # before quiet deadline
        actions = node.on_timer(30.0)
        assert len(actions) == 1
        assert isinstance(actions[0], CancelClusterAction)
        assert node.state == SIDState.MONITORING

    def test_head_confirms_with_member_reports(self, rng):
        node = _node(min_reports=2, min_rows=1)
        _init(node, rng)
        _feed(node, _burst(rng), 4.0)
        node.on_member_report(_member_report(1, 6.0))
        node.on_member_report(_member_report(2, 8.0))
        actions = node.on_timer(4.0 + 61.0)
        kinds = {type(a) for a in actions}
        assert ClusterResultAction in kinds or CancelClusterAction in kinds
        assert node.state == SIDState.MONITORING

    def test_late_member_report_dropped(self, rng):
        node = _node()
        _init(node, rng)
        _feed(node, _burst(rng), 4.0)
        node.on_timer(200.0)  # cluster evaluated and closed
        node.on_member_report(_member_report(1, 201.0))  # must not crash

    def test_timer_noop_when_no_cluster(self, rng):
        node = _node()
        _init(node, rng)
        assert node.on_timer(100.0) == []

    def test_result_action_carries_event(self, rng):
        node = _node(min_reports=2, min_rows=1)
        _init(node, rng)
        _feed(node, _burst(rng), 4.0)
        # Two member reports in the same row with correlated structure.
        node.on_member_report(_member_report(1, 6.0))
        actions = node.on_timer(4.0 + 61.0)
        for action in actions:
            if isinstance(action, ClusterResultAction):
                assert action.report.n_reports >= 2

"""Tests for protocol PDUs and frames."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.detection.reports import NodeReport
from repro.network.messages import (
    BROADCAST,
    HEADER_BYTES,
    ClusterCancelMsg,
    ClusterSetupMsg,
    Frame,
    MemberReportMsg,
)
from repro.types import Position


def _node_report():
    return NodeReport(
        node_id=1,
        position=Position(0, 0),
        onset_time=1.0,
        energy=2.0,
        anomaly_frequency=0.5,
    )


def test_frame_size_includes_header():
    f = Frame(src=1, dst=2, payload=ClusterCancelMsg(head_id=1))
    assert f.size_bytes == HEADER_BYTES + 4


def test_member_report_size():
    msg = MemberReportMsg(head_id=1, report=_node_report())
    f = Frame(src=1, dst=2, payload=msg)
    assert f.size_bytes == HEADER_BYTES + 4 + NodeReport.WIRE_BYTES


def test_broadcast_flag():
    f = Frame(src=1, dst=BROADCAST, payload=ClusterCancelMsg(head_id=1))
    assert f.is_broadcast
    assert not Frame(src=1, dst=2, payload=ClusterCancelMsg(head_id=1)).is_broadcast


def test_frame_sequence_numbers_unique():
    a = Frame(src=1, dst=2, payload=ClusterCancelMsg(head_id=1))
    b = Frame(src=1, dst=2, payload=ClusterCancelMsg(head_id=1))
    assert a.seq != b.seq


def test_cluster_setup_validation():
    with pytest.raises(ConfigurationError):
        ClusterSetupMsg(head_id=1, hops_remaining=-1, onset_time=0.0)

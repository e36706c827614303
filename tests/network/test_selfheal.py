"""Tests for the self-healing runtime and routing repair primitives."""

from __future__ import annotations

import networkx as nx
import pytest

from repro.detection.reports import ClusterReport, NodeReport
from repro.detection.sid import SIDNode
from repro.detection.sink import Sink
from repro.errors import ConfigurationError
from repro.network.channel import Channel, ChannelConfig
from repro.network.messages import ClusterReportMsg, MemberReportMsg
from repro.network.nodeproc import SensorNetwork
from repro.network.routing import RoutingTable
from repro.network.selfheal import SelfHealingConfig
from repro.types import Position


def _member_msg(node_id: int = 0) -> MemberReportMsg:
    return MemberReportMsg(head_id=3, report=_node_report(node_id))


def _node_report(node_id: int) -> NodeReport:
    return NodeReport(
        node_id=node_id,
        position=Position(0.0, 0.0),
        onset_time=1.0,
        energy=1.0,
        anomaly_frequency=0.5,
    )


def _sink_msg(node_id: int = 0) -> ClusterReportMsg:
    return ClusterReportMsg(
        report=ClusterReport(
            head_id=node_id,
            reports=(_node_report(node_id),),
            time_correlation=1.0,
            energy_correlation=1.0,
            correlation=1.0,
            detection_time=1.0,
        )
    )


# ---------------------------------------------------------------------------
# Config validation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "kwargs",
    [
        {"failure_threshold": 0},
        {"hop_max_attempts": 0},
        {"relay_queue_cap": -1},
        {"relay_queue_cap": 0},
    ],
)
def test_config_rejects_bad_values(kwargs):
    with pytest.raises(ConfigurationError):
        SelfHealingConfig(**kwargs)


# ---------------------------------------------------------------------------
# RoutingTable: exclusion, leaf re-attachment, subtree_of
# ---------------------------------------------------------------------------

SINK = 9


def _diamond_graph():
    """sink -- {0, 1} -- 2, with 0 the cheaper parent for 2."""
    g = nx.Graph()
    g.add_edge(SINK, 0, etx=1.0)
    g.add_edge(SINK, 1, etx=1.0)
    g.add_edge(0, 2, etx=1.0)
    g.add_edge(1, 2, etx=2.0)
    return g


def test_exclude_reroutes_subtree_and_reattaches_leaf():
    rt = RoutingTable(_diamond_graph(), SINK)
    assert rt.next_hop(2) == 0
    healed = RoutingTable(_diamond_graph(), SINK, exclude={0})
    # The orphaned node takes the surviving (dearer) parent...
    assert healed.next_hop(2) == 1
    # ...while the excluded node is re-attached as a leaf: it can still
    # originate frames (it may be falsely declared dead) but nothing
    # routes through it.
    assert healed.next_hop(0) == SINK
    assert healed.subtree_of(0) == []


def test_exclude_sink_rejected():
    with pytest.raises(ConfigurationError):
        RoutingTable(_diamond_graph(), SINK, exclude={SINK})


def test_subtree_of_walks_descendants():
    g = nx.Graph()
    g.add_edge(SINK, 0, etx=1.0)
    g.add_edge(0, 1, etx=1.0)
    g.add_edge(1, 2, etx=1.0)
    rt = RoutingTable(g, SINK)
    assert rt.subtree_of(0) == [1, 2]
    assert rt.subtree_of(1) == [2]
    assert rt.subtree_of(2) == []


# ---------------------------------------------------------------------------
# Runtime repair on a live SensorNetwork
# ---------------------------------------------------------------------------


def _heal_network(healing: SelfHealingConfig | None, loss=0.0, seed=0):
    """Diamond deployment: 0 -> {1, 2} -> sink, with 1 the ETX parent."""
    positions = {
        0: Position(0.0, 10.0),
        1: Position(25.0, 0.0),
        2: Position(25.0, 22.0),
        3: Position(50.0, 10.0),
    }
    sink = Sink()
    channel = Channel(
        ChannelConfig(shadowing_sigma_db=0.0, base_loss_rate=loss), seed=seed
    )
    net = SensorNetwork(
        positions=positions,
        sink_id=4,
        sink_position=Position(55.0, 10.0),
        sink=sink,
        channel=channel,
        healing=healing,
        seed=seed,
    )
    for nid, pos in positions.items():
        net.add_node(SIDNode(nid, pos))
    return net, sink


def test_healing_disabled_installs_no_runtime():
    net, _ = _heal_network(None)
    assert net.heal is None


def test_dead_hop_declared_and_frame_healed():
    net, _ = _heal_network(SelfHealingConfig())
    assert net.heal is not None
    primary = net.routing.next_hop(0)
    assert primary in (1, 2)
    alternate = 2 if primary == 1 else 1
    net.nodes[primary].crash()
    net.send_to_sink(0, _sink_msg(0))
    net.sim.run()
    # Two missed acks on the dead hop declared it dead, the subtree was
    # re-parented through the survivor, and the in-flight frame was
    # delivered over the repaired route.
    assert primary in net.heal.dead
    assert net.resilience.parents_declared_dead == 1
    assert net.resilience.reroutes >= 1
    assert net.resilience.frames_healed == 1
    assert net.routing.next_hop(0) == alternate
    assert net.sink_node.received_frames == 1


def test_heartbeat_from_declared_dead_node_rejoins():
    net, _ = _heal_network(SelfHealingConfig())
    victim = net.routing.next_hop(0)
    net.nodes[victim].crash()
    net.send_to_sink(0, _sink_msg(0))
    net.sim.run()
    assert victim in net.heal.dead
    # The node was never actually down for good: any delivered frame it
    # originates is proof of life and folds it back into the tree.
    net.nodes[victim].alive = True
    net.send_to_sink(victim, _sink_msg(victim))
    net.sim.run()
    assert victim not in net.heal.dead
    assert net.sink_node.received_frames == 2


def test_reboot_rejoins_routing_tree():
    net, _ = _heal_network(SelfHealingConfig())
    victim = net.routing.next_hop(0)
    net.nodes[victim].crash()
    net.send_to_sink(0, _sink_msg(0))
    net.sim.run()
    reroutes_before = net.resilience.reroutes
    net.nodes[victim].reboot()
    assert victim not in net.heal.dead
    assert net.resilience.reroutes == reroutes_before + 1
    assert net.resilience.cold_restarts == 1


def test_relay_queue_cap_drops_excess_admissions():
    net, _ = _heal_network(SelfHealingConfig(relay_queue_cap=1))
    net.unicast(0, 3, _member_msg(0))
    net.unicast(0, 3, _member_msg(0))
    assert net.resilience.relay_queue_drops == 1
    net.sim.run()
    # The admitted frame still went through.
    assert net.resilience.relay_queue_drops == 1


def test_hop_attempts_exhaust_to_abandonment():
    # A huge failure threshold keeps the dead hop un-declared, so the
    # relay burns its per-frame attempts and gives the frame up.
    net, _ = _heal_network(
        SelfHealingConfig(failure_threshold=99, hop_max_attempts=2)
    )
    victim = net.routing.next_hop(0)
    net.nodes[victim].crash()
    net.send_to_sink(0, _sink_msg(0))
    net.sim.run()
    assert net.resilience.relay_frames_abandoned == 1
    assert net.resilience.hop_retransmits == 1
    assert net.heal.dead == set()
    assert net.sink_node.received_frames == 0


def test_sink_never_declared_dead():
    net, _ = _heal_network(SelfHealingConfig())
    net.heal.declare_dead(net.sink_node.node_id)
    assert net.sink_node.node_id not in net.heal.dead
    assert net.resilience.parents_declared_dead == 0

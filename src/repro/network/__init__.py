"""Wireless-network substrate: the radios between the motes and the sink.

Sec. IV-C motivates cluster-level fusion with network realities: "its
positive report may not be transmitted back timely due to wireless
communication errors and possible network congestions".  This package
supplies those realities as a controllable substrate:

- :mod:`repro.network.simulator` — a discrete-event simulation core;
- :mod:`repro.network.channel` — log-distance path loss, shadowing and
  an SNR-driven packet-error model;
- :mod:`repro.network.mac` — CSMA-style medium access with backoff,
  retries and collisions;
- :mod:`repro.network.messages` — the protocol PDUs;
- :mod:`repro.network.routing` — connectivity graph, min-hop routes to
  the sink and k-hop neighbourhoods (for the 6-hop cluster flood);
- :mod:`repro.network.nodeproc` — the network process wrapping one
  :class:`repro.detection.sid.SIDNode`;
- :mod:`repro.network.selfheal` — the self-healing runtime (route
  repair, hop-by-hop retries, cold-restart recovery).
"""

from repro.network.channel import Channel, ChannelConfig
from repro.network.mac import Mac, MacConfig
from repro.network.messages import (
    BROADCAST,
    ClusterReportMsg,
    ClusterSetupMsg,
    Frame,
    MemberReportMsg,
)
from repro.network.nodeproc import NetworkNode, SinkNode
from repro.network.routing import RoutingTable, build_connectivity
from repro.network.selfheal import (
    OrphanEvent,
    SelfHealingConfig,
    SelfHealingRuntime,
)
from repro.network.simulator import Simulator

__all__ = [
    "BROADCAST",
    "Channel",
    "ChannelConfig",
    "ClusterReportMsg",
    "ClusterSetupMsg",
    "Frame",
    "Mac",
    "MacConfig",
    "MemberReportMsg",
    "NetworkNode",
    "OrphanEvent",
    "RoutingTable",
    "SelfHealingConfig",
    "SelfHealingRuntime",
    "Simulator",
    "SinkNode",
    "build_connectivity",
]

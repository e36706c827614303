"""Tests for topology construction and routing."""

from __future__ import annotations

import networkx as nx
import pytest

from repro.errors import ConfigurationError
from repro.network.channel import Channel, ChannelConfig
from repro.network.routing import RoutingTable, build_connectivity
from repro.types import Position


def _line_topology(n=6, spacing=25.0):
    positions = {i: Position(i * spacing, 0.0) for i in range(n)}
    channel = Channel(ChannelConfig(shadowing_sigma_db=0.0), seed=0)
    graph = build_connectivity(positions, channel)
    return positions, graph


def test_neighbours_connected_far_nodes_not():
    _, graph = _line_topology()
    assert graph.has_edge(0, 1)
    assert not graph.has_edge(0, 5)


def test_edges_carry_probability():
    _, graph = _line_topology()
    assert 0.5 < graph.edges[0, 1]["p"] <= 1.0


def test_routing_tree_depths():
    _, graph = _line_topology()
    table = RoutingTable(graph, sink_id=0)
    assert table.route(0) == [0]
    assert len(table.route(1)) - 1 == 1
    # Node 5 must be reachable through the chain.
    assert len(table.route(5)) - 1 >= 2


def test_next_hop_decreases_cost():
    _, graph = _line_topology()
    table = RoutingTable(graph, sink_id=0)
    etx = nx.single_source_dijkstra_path_length(graph, 0, weight="etx")
    for node in range(1, 6):
        nh = table.next_hop(node)
        assert nh is not None
        assert etx[nh] < etx[node]


def test_etx_prefers_reliable_links():
    # A chain of solid short links must beat marginal long skips: the
    # route to the sink only uses edges with high delivery probability.
    _, graph = _line_topology()
    table = RoutingTable(graph, sink_id=0)
    route = table.route(5)
    for a, b in zip(route, route[1:]):
        assert graph.edges[a, b]["p"] > 0.8


def test_route_ends_at_sink():
    _, graph = _line_topology()
    table = RoutingTable(graph, sink_id=0)
    route = table.route(5)
    assert route[0] == 5
    assert route[-1] == 0


def test_partitioned_node():
    positions = {0: Position(0, 0), 1: Position(25, 0), 2: Position(5000, 0)}
    channel = Channel(ChannelConfig(shadowing_sigma_db=0.0), seed=0)
    graph = build_connectivity(positions, channel)
    table = RoutingTable(graph, sink_id=0)
    assert not table.is_connected(2)
    assert table.next_hop(2) is None
    with pytest.raises(ConfigurationError):
        table.route(2)


def test_nodes_within_hops():
    _, graph = _line_topology()
    table = RoutingTable(graph, sink_id=0)
    one_hop = table.nodes_within_hops(2, 1)
    assert 1 in one_hop and 3 in one_hop
    assert 0 not in one_hop or graph.has_edge(2, 0)
    six_hop = table.nodes_within_hops(0, 6)
    assert len(six_hop) == 5


def test_nodes_within_hops_excludes_self():
    _, graph = _line_topology()
    table = RoutingTable(graph, sink_id=0)
    assert 2 not in table.nodes_within_hops(2, 3)


def test_sink_must_exist():
    _, graph = _line_topology()
    with pytest.raises(ConfigurationError):
        RoutingTable(graph, sink_id=99)


def test_bad_min_probability():
    positions = {0: Position(0, 0)}
    channel = Channel(seed=0)
    with pytest.raises(ConfigurationError):
        build_connectivity(positions, channel, min_probability=0.0)


def test_neighbors_sorted():
    _, graph = _line_topology()
    table = RoutingTable(graph, sink_id=0)
    nbrs = table.neighbors(2)
    assert nbrs == sorted(nbrs)

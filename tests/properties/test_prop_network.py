"""Property-based tests for the network substrate."""

from __future__ import annotations

import math

import networkx as nx
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.channel import Channel, ChannelConfig
from repro.network.routing import RoutingTable, build_connectivity
from repro.sensors.battery import Battery
from repro.types import Position

_flat_channel = Channel(ChannelConfig(shadowing_sigma_db=0.0), seed=0)


@given(st.floats(1.0, 1000.0), st.floats(1.0, 1000.0))
def test_delivery_probability_monotone_in_distance(d1, d2):
    lo, hi = sorted((d1, d2))
    a = Position(0, 0)
    p_near = _flat_channel.delivery_probability(0, 1, a, Position(lo, 0))
    p_far = _flat_channel.delivery_probability(0, 2, a, Position(hi, 0))
    assert p_far <= p_near + 1e-12


@given(st.floats(0.5, 1000.0))
def test_delivery_probability_in_unit_interval(d):
    p = _flat_channel.delivery_probability(0, 1, Position(0, 0), Position(d, 0))
    assert 0.0 <= p <= 1.0


@given(st.integers(2, 12), st.floats(10.0, 40.0))
@settings(max_examples=30)
def test_line_topology_routes_always_reach_sink(n, spacing):
    positions = {i: Position(i * spacing, 0.0) for i in range(n)}
    graph = build_connectivity(positions, _flat_channel)
    table = RoutingTable(graph, sink_id=0)
    etx = nx.single_source_dijkstra_path_length(graph, 0, weight="etx")
    for node in range(n):
        if not table.is_connected(node):
            continue
        route = table.route(node)
        assert route[-1] == 0
        assert len(set(route)) == len(route)  # no loops
        # ETX cost strictly decreases along the route.
        costs = [etx[x] for x in route]
        assert all(a > b for a, b in zip(costs, costs[1:]))


@given(
    st.lists(
        st.tuples(st.floats(0.0, 100.0), st.text(min_size=1, max_size=5)),
        max_size=30,
    )
)
def test_battery_accounting_conserves_energy(draws):
    b = Battery(1e9)
    for joules, category in draws:
        b.draw(joules, category)
    spent = sum(b.breakdown().values())
    assert math.isclose(b.remaining_j, 1e9 - spent, rel_tol=1e-9)


@given(st.lists(st.floats(0.1, 100.0), min_size=1, max_size=50))
def test_battery_depletes_exactly_once(draws):
    total = sum(draws)
    b = Battery(total / 2.0)
    accepted = sum(1 for j in draws if not b.draw(j, "x") is True)
    assert b.depleted or b.remaining_j >= 0.0

"""Topology and routing: connectivity graph, sink tree, k-hop floods.

After deployment the (static) topology is known: node positions are
assigned at deployment time (Sec. III-A).  Routing is a min-hop
spanning tree rooted at the sink; the 6-hop temporary-cluster flood of
Algorithm SID uses the same graph's k-hop neighbourhoods.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Optional

from repro.errors import ConfigurationError
from repro.network.channel import Channel
from repro.types import Position

if TYPE_CHECKING:
    import networkx


def build_connectivity(
    positions: dict[int, Position],
    channel: Channel,
    min_probability: float = 0.6,
) -> networkx.Graph:
    """Graph with an edge for every usable link.

    Links below ``min_probability`` are blacklisted entirely (the
    standard WSN practice: marginal links cost more retransmissions
    than a detour over good ones).  Edges carry the link's
    ``delivery_probability`` as attribute ``p`` and its expected
    transmission count as ``etx = 1 / p``.
    """
    import networkx as nx

    if not 0 < min_probability < 1:
        raise ConfigurationError(
            f"min_probability must be in (0, 1), got {min_probability}"
        )
    graph = nx.Graph()
    graph.add_nodes_from(positions)
    ids = sorted(positions)
    for i, a in enumerate(ids):
        for b in ids[i + 1 :]:
            p = channel.delivery_probability(
                a, b, positions[a], positions[b]
            )
            if p >= min_probability:
                graph.add_edge(a, b, p=p, etx=1.0 / p)
    return graph


class RoutingTable:
    """ETX-optimal routes toward one sink, plus k-hop neighbourhoods.

    Routes minimise the expected number of transmissions (the sum of
    ``1/p`` over the path's links) rather than the raw hop count, so a
    chain of solid 25 m links beats a shorter chain of marginal 50 m
    skips.

    ``exclude`` supports the self-healing runtime's route repair: the
    excluded nodes relay no traffic (Dijkstra runs on the remaining
    core), but each is re-attached as a *leaf* under its cheapest live
    neighbour — the per-node ETX parent re-selection.  Leaf attachment
    means a node falsely declared dead can still originate frames; only
    transit trust is withdrawn.
    """

    def __init__(
        self,
        graph: networkx.Graph,
        sink_id: int,
        exclude: Iterable[int] = (),
    ) -> None:
        import networkx as nx

        if sink_id not in graph:
            raise ConfigurationError(f"sink {sink_id} not in topology")
        self.graph = graph
        self.sink_id = sink_id
        self.exclude = frozenset(exclude)
        if sink_id in self.exclude:
            raise ConfigurationError("cannot exclude the sink from routing")
        core = (
            graph.subgraph([n for n in graph if n not in self.exclude])
            if self.exclude
            else graph
        )
        # Dijkstra from the sink on the ETX metric gives each node its
        # parent (next hop toward the sink).
        costs, paths = nx.single_source_dijkstra(
            core, sink_id, weight="etx"
        )
        self._parent: dict[int, int] = {}
        for node, path in paths.items():
            if len(path) >= 2:
                # path runs sink -> ... -> node; the next hop toward the
                # sink is the penultimate element.
                self._parent[node] = path[-2]
        # ETX parent re-selection for the excluded set: each attaches as
        # a leaf under the neighbour minimising (neighbour cost + link
        # ETX), ties broken by the lower node id for determinism.
        for nid in sorted(self.exclude):
            candidates = [
                (costs[nbr] + graph.edges[nid, nbr]["etx"], nbr)
                for nbr in sorted(graph.neighbors(nid))
                if nbr in costs
            ]
            if not candidates:
                continue
            _, parent = min(candidates)
            self._parent[nid] = parent

    def is_connected(self, node_id: int) -> bool:
        """True when ``node_id`` has a route to the sink."""
        return node_id == self.sink_id or node_id in self._parent

    def next_hop(self, node_id: int) -> Optional[int]:
        """Next hop toward the sink, or None (sink itself / partitioned)."""
        if node_id == self.sink_id:
            return None
        return self._parent.get(node_id)

    def route(self, node_id: int) -> list[int]:
        """Full node sequence from ``node_id`` to the sink (inclusive)."""
        if not self.is_connected(node_id):
            raise ConfigurationError(f"node {node_id} has no route to sink")
        path = [node_id]
        while path[-1] != self.sink_id:
            path.append(self._parent[path[-1]])
        return path

    def neighbors(self, node_id: int) -> list[int]:
        """Direct radio neighbours."""
        return sorted(self.graph.neighbors(node_id))

    def subtree_of(self, node_id: int) -> list[int]:
        """Nodes whose route to the sink runs through ``node_id``.

        This is the set a crash of ``node_id`` orphans: every node in
        it loses sink connectivity until the tree is repaired.  The
        node itself is not a member.
        """
        children: dict[int, list[int]] = {}
        for child, parent in self._parent.items():
            children.setdefault(parent, []).append(child)
        out: list[int] = []
        stack = [node_id]
        while stack:
            for child in children.get(stack.pop(), ()):
                out.append(child)
                stack.append(child)
        return sorted(out)

    def nodes_within_hops(self, node_id: int, hops: int) -> list[int]:
        """All nodes reachable in <= ``hops`` hops (excluding the node).

        This is the recipient set of the SetUpTempCluster flood
        ("informs its neighbor nodes within N hops").
        """
        import networkx as nx

        if hops < 0:
            raise ConfigurationError(f"hops must be >= 0, got {hops}")
        lengths = nx.single_source_shortest_path_length(
            self.graph, node_id, cutoff=hops
        )
        return sorted(n for n in lengths if n != node_id)

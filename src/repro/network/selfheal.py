"""Self-healing network runtime: route repair, hop retries, rejoin.

SID's Sec. IV network layer assumes long unattended deployments at
sea, where a single crashed forwarder must not permanently orphan its
subtree.  This module supplies the repair machinery the seed transport
lacks:

- **Failure evidence.**  Every sinkward/unicast forward is observed at
  the delivery boundary.  A hop whose MAC retries exhaust, or whose
  receiver turns out to be dead, counts one missed ack against that
  neighbour; ``failure_threshold`` consecutive misses declare it dead.
- **Route repair.**  Declaring a neighbour dead re-runs the ETX parent
  selection of :class:`repro.network.routing.RoutingTable` with the
  dead set excluded, re-attaching the orphaned subtree at runtime.
- **Hop-by-hop reliability.**  The failed frame is re-sent with
  exponential per-hop backoff over the (possibly repaired) route, up
  to ``hop_max_attempts`` transmissions, under a bounded per-node
  relay queue so healing cannot amplify congestion.
- **Rejoin.**  A rebooted node re-enters the routing tree through the
  same repair path instead of waiting for the next setup flood.

The runtime only exists when a :class:`SelfHealingConfig` is passed to
:class:`repro.network.nodeproc.SensorNetwork`; with healing disabled
no hook is installed and every transport path (and RNG draw) stays
bit-identical to the pre-healing seed.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional

from repro.errors import ConfigurationError
from repro.network.messages import Frame
from repro.network.routing import RoutingTable
from repro.telemetry.events import CAT_HEAL

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    import networkx

    from repro.network.nodeproc import SensorNetwork

logger = logging.getLogger("repro.network.selfheal")

#: Base per-hop retry backoff [s]; attempt ``k`` waits ``2**k`` times
#: this long.  Short relative to the report staleness window so a
#: healed frame still makes its collection deadline.
HOP_BACKOFF_S = 0.05


@dataclass(frozen=True)
class SelfHealingConfig:
    """Policy knobs for the self-healing runtime."""

    #: Consecutive missed acks on one neighbour before it is declared
    #: dead and routed around.
    failure_threshold: int = 2
    #: Total transmissions attempted per forwarded frame (first try
    #: included) before the relay gives up on it.
    hop_max_attempts: int = 4
    #: Frames one node may have in flight (including backoff waits) as
    #: forwarder; excess admissions are dropped and counted.
    relay_queue_cap: int = 16
    #: Keep the adaptive eq. 5 moving mean/std across ``reboot()``
    #: (battery-backed RAM).  The default models a true cold restart:
    #: the baseline re-seeds from scratch and the re-warm-up blind
    #: window is metered in ``baseline_blind_window_s``.
    persist_baseline: bool = False

    def __post_init__(self) -> None:
        if self.failure_threshold < 1:
            raise ConfigurationError(
                f"failure_threshold must be >= 1, got {self.failure_threshold}"
            )
        if self.hop_max_attempts < 1:
            raise ConfigurationError(
                f"hop_max_attempts must be >= 1, got {self.hop_max_attempts}"
            )
        if self.relay_queue_cap < 1:
            raise ConfigurationError(
                f"relay_queue_cap must be >= 1, got {self.relay_queue_cap}"
            )


@dataclass(frozen=True)
class OrphanEvent:
    """One subtree-orphaning episode, closed on reboot or run end.

    ``orphaned_ids`` are the nodes whose route to the sink ran through
    the dead node when its loss was first observed — the silent
    casualties a bare drop counter hides.
    """

    dead_node_id: int
    orphaned_ids: tuple[int, ...]
    start_s: float
    end_s: float

    @property
    def duration_s(self) -> float:
        """How long the subtree stayed orphaned."""
        return self.end_s - self.start_s


class SelfHealingRuntime:
    """Evidence ledger + repair engine bound to one :class:`SensorNetwork`.

    All state is deterministic: evidence comes from the simulation's
    own delivery outcomes and repairs re-run the deterministic ETX
    Dijkstra — the runtime draws no randomness of its own.
    """

    def __init__(
        self, network: "SensorNetwork", config: SelfHealingConfig
    ) -> None:
        self.network = network
        self.config = config
        #: Neighbours declared dead (excluded from routing and paths).
        self.dead: set[int] = set()
        self._missed_acks: dict[int, int] = {}
        self._pending: dict[int, int] = {}
        # The graph restricted to nodes not declared dead; starts as
        # the full connectivity graph (same object — zero divergence
        # until the first repair).
        self.live_graph: networkx.Graph = network.graph

    # ------------------------------------------------------------------
    # Topology repair
    # ------------------------------------------------------------------
    def rebuild(self) -> None:
        """Re-run ETX parent selection around the dead set."""
        net = self.network
        net.routing = RoutingTable(
            net.graph, net.sink_node.node_id, exclude=self.dead
        )
        self.live_graph = net.graph.subgraph(
            [n for n in net.graph if n not in self.dead]
        )
        net.resilience.reroutes += 1
        if net.trace is not None:
            net.trace.emit(
                CAT_HEAL,
                "reroute",
                sim_time_s=net.sim.now,
                n_dead=len(self.dead),
            )

    def declare_dead(self, node_id: int) -> None:
        """Mark a neighbour dead and reroute the orphaned subtree."""
        if node_id in self.dead or node_id == self.network.sink_node.node_id:
            return
        self.dead.add(node_id)
        self.network.resilience.parents_declared_dead += 1
        if self.network.trace is not None:
            self.network.trace.emit(
                CAT_HEAL,
                "dead_parent",
                sim_time_s=self.network.sim.now,
                node_id=node_id,
                missed_acks=self._missed_acks.get(node_id, 0),
            )
        logger.info(
            "node %d declared dead after %d missed ack(s); rerouting",
            node_id,
            self._missed_acks.get(node_id, 0),
        )
        self.rebuild()

    def node_rejoined(self, node_id: int) -> None:
        """Fold a rebooted node back into the routing tree."""
        self._missed_acks.pop(node_id, None)
        if node_id in self.dead:
            self.dead.discard(node_id)
            if self.network.trace is not None:
                self.network.trace.emit(
                    CAT_HEAL,
                    "rejoin",
                    sim_time_s=self.network.sim.now,
                    node_id=node_id,
                )
            self.rebuild()

    # ------------------------------------------------------------------
    # Reliable forwarding
    # ------------------------------------------------------------------
    def forward(
        self,
        src: int,
        dst: Optional[int],
        payload: object,
        on_abandon: Optional[Callable[[Frame], None]] = None,
    ) -> None:
        """Forward ``payload`` one reliable hop at a time.

        ``dst=None`` means sinkward along the routing tree; an integer
        targets that node over the live connectivity graph.  The call
        admits the frame into ``src``'s bounded relay queue; admission
        is released when the frame is delivered, abandoned, or lost to
        partition.
        """
        if self._pending.get(src, 0) >= self.config.relay_queue_cap:
            self.network.resilience.relay_queue_drops += 1
            if self.network.trace is not None:
                self.network.trace.emit(
                    CAT_HEAL,
                    "relay_queue_drop",
                    sim_time_s=self.network.sim.now,
                    node_id=src,
                )
            return
        self._pending[src] = self._pending.get(src, 0) + 1
        self._attempt(src, dst, payload, 0, False, on_abandon)

    def _release(self, src: int) -> None:
        count = self._pending.get(src, 0)
        if count <= 1:
            self._pending.pop(src, None)
        else:
            self._pending[src] = count - 1

    def _next_hop(self, src: int, dst: Optional[int]) -> Optional[int]:
        """Next hop toward ``dst`` (or the sink), avoiding dead nodes."""
        net = self.network
        if dst is None:
            return net.routing.next_hop(src)
        graph = self.live_graph
        if src not in graph or dst not in graph:
            return None
        import networkx as nx

        try:
            path = nx.shortest_path(graph, src, dst)
        except nx.NetworkXNoPath:
            return None
        if len(path) < 2:
            return None
        return path[1]

    def _attempt(
        self,
        src: int,
        dst: Optional[int],
        payload: object,
        attempt: int,
        recovering: bool,
        on_abandon: Optional[Callable[[Frame], None]],
    ) -> None:
        net = self.network
        proc = net.nodes.get(src)
        if proc is not None and not proc.alive:
            # The forwarder itself died; its queue dies with it.
            self._release(src)
            return
        sink_id = net.sink_node.node_id
        if dst is not None and (dst in self.dead or dst not in net.graph):
            net.lost_to_partition += 1
            self._release(src)
            return
        next_hop = self._next_hop(src, dst)
        if next_hop is None:
            if dst is None and src == sink_id:
                self._release(src)
                net._deliver(src, Frame(src=src, dst=src, payload=payload))
                return
            if dst is not None and src == dst:
                self._release(src)
                return
            net.lost_to_partition += 1
            self._release(src)
            return
        frame = Frame(src=src, dst=next_hop, payload=payload)
        # Parity with the seed transport: unicast bills the sender's
        # radio, the sinkward tree path does not.
        if dst is not None and not net._bill_tx(src, frame):
            self._release(src)
            return

        def delivered(sent: Frame) -> None:
            receiver = net.nodes.get(next_hop)
            if next_hop != sink_id and (
                receiver is None or not receiver.alive
            ):
                # The radio acked but the process is dead: deliver (the
                # dead node counts the drop) and treat it as evidence.
                net._deliver(next_hop, sent)
                self._hop_failed(
                    src, dst, payload, attempt, recovering, next_hop,
                    sent, on_abandon,
                )
                return
            self._missed_acks.pop(next_hop, None)
            if recovering:
                net.resilience.frames_healed += 1
                if net.trace is not None:
                    net.trace.emit(
                        CAT_HEAL,
                        "healed",
                        sim_time_s=net.sim.now,
                        node_id=src,
                        via=next_hop,
                    )
            self._release(src)
            net._deliver(next_hop, sent)

        def failed(sent: Frame) -> None:
            self._hop_failed(
                src, dst, payload, attempt, recovering, next_hop,
                sent, on_abandon,
            )

        net.mac.send(
            frame,
            net.positions[src],
            net.positions[next_hop],
            net._neighbours(src),
            on_delivered=delivered,
            on_failed=failed,
        )

    def _hop_failed(
        self,
        src: int,
        dst: Optional[int],
        payload: object,
        attempt: int,
        recovering: bool,
        bad_hop: int,
        frame: Frame,
        on_abandon: Optional[Callable[[Frame], None]],
    ) -> None:
        """One missed ack: accrue evidence, then retry or abandon."""
        count = self._missed_acks.get(bad_hop, 0) + 1
        self._missed_acks[bad_hop] = count
        if self.network.trace is not None:
            self.network.trace.emit(
                CAT_HEAL,
                "missed_ack",
                sim_time_s=self.network.sim.now,
                node_id=src,
                bad_hop=bad_hop,
                evidence=count,
            )
        rerouted = False
        if (
            count >= self.config.failure_threshold
            and bad_hop not in self.dead
            and bad_hop != self.network.sink_node.node_id
        ):
            self.declare_dead(bad_hop)
            rerouted = True
        if attempt + 1 >= self.config.hop_max_attempts:
            self.network.resilience.relay_frames_abandoned += 1
            if self.network.trace is not None:
                self.network.trace.emit(
                    CAT_HEAL,
                    "abandon",
                    sim_time_s=self.network.sim.now,
                    node_id=src,
                    attempts=attempt + 1,
                )
            self._release(src)
            if on_abandon is not None:
                on_abandon(frame)
            return
        self.network.resilience.hop_retransmits += 1
        delay = HOP_BACKOFF_S * (2.0**attempt)
        self.network.sim.schedule(
            delay,
            self._attempt,
            src,
            dst,
            payload,
            attempt + 1,
            recovering or rerouted,
            on_abandon,
        )

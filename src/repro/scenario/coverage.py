"""Barrier-coverage planning for the surveillance field.

The paper cites Kumar et al.'s *barrier coverage* [4] as the
deployment-theory backdrop: a surveillance field stops intruders only
if every crossing path intersects at least ``k`` sensing disks.  This
module connects that theory to the SID physics:

- :func:`detection_radius_m` inverts the Kelvin decay law (eq. 1)
  against the node-level threshold, giving the lateral distance at
  which a given ship is still detectable at multiplier ``M``;
- :class:`BarrierAnalysis` checks k-barrier coverage of a deployment
  for that radius, using the standard reduction: disks overlapping the
  left and right field boundaries are virtual terminals, a crossing-
  free path of overlapping disks between them is a barrier.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.constants import ACCEL_COUNTS_PER_G, GRAVITY
from repro.detection.node_detector import NodeDetectorConfig
from repro.errors import ConfigurationError
from repro.physics.buoy import HEAVE_CORNER_HZ, HEAVE_ORDER
from repro.physics.kelvin import MIN_HEIGHT_LATERAL_M, cusp_wave_period
from repro.scenario.deployment import GridDeployment
from repro.scenario.ship import ShipTrack

if TYPE_CHECKING:
    import networkx

#: Calibrated calm-sea ambient std d'_T of the rectified counts.
AMBIENT_STD_COUNTS = 42.0

#: Farthest lateral distance [m] :func:`detection_radius_m` searches.
MAX_RADIUS_M = 2000.0


def detection_radius_m(
    ship: ShipTrack,
    detector: NodeDetectorConfig | None = None,
    ambient_mean_counts: float = 57.0,
    envelope_margin: float = 0.55,
) -> float:
    """Lateral distance at which ``ship`` still trips the detector.

    Inverts the detection condition: the wake's peak acceleration (in
    counts, after the buoy's heave response) scaled by the envelope
    margin — the fraction of the packet that must stay above threshold
    for the anomaly frequency to pass — must exceed
    ``D_max + d'_T = M * m'_T + d'_T``.  The ambient statistics are
    the calibrated calm-sea values of the rectified counts (m'_T by
    default, d'_T = :data:`AMBIENT_STD_COUNTS`), and the heave response
    is the buoy's (:data:`~repro.physics.buoy.HEAVE_CORNER_HZ`,
    :data:`~repro.physics.buoy.HEAVE_ORDER`).

    Returns 0 when even the near-field wake is below threshold, and
    :data:`MAX_RADIUS_M` when the wake is still above it there.
    """
    cfg = detector if detector is not None else NodeDetectorConfig()
    wake = ship.wake()
    period = cusp_wave_period(ship.speed_mps)
    omega = 2.0 * math.pi / period
    gain = 1.0 / math.sqrt(
        1.0 + (1.0 / (period * HEAVE_CORNER_HZ)) ** (2 * HEAVE_ORDER)
    )
    threshold = cfg.m * ambient_mean_counts + AMBIENT_STD_COUNTS

    def peak_counts(d: float) -> float:
        coeff = wake._coeff
        height = coeff * max(d, MIN_HEIGHT_LATERAL_M) ** (-1.0 / 3.0)
        accel = 0.5 * height * omega * omega * gain
        return accel / GRAVITY * ACCEL_COUNTS_PER_G * envelope_margin

    if peak_counts(MIN_HEIGHT_LATERAL_M) < threshold:
        return 0.0
    lo, hi = MIN_HEIGHT_LATERAL_M, MAX_RADIUS_M
    if peak_counts(hi) >= threshold:
        return hi
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if peak_counts(mid) >= threshold:
            lo = mid
        else:
            hi = mid
    return lo


@dataclass(frozen=True)
class BarrierResult:
    """Outcome of a k-barrier coverage analysis."""

    k: int
    covered: bool
    barrier_node_ids: tuple[tuple[int, ...], ...]

    @property
    def n_barriers(self) -> int:
        """Number of disjoint barriers found."""
        return len(self.barrier_node_ids)


class BarrierAnalysis:
    """k-barrier coverage of a rectangular field crossed top-to-bottom.

    The intruder travels roughly along +y (the paper's crossing
    geometry); a *barrier* is a chain of overlapping detection disks
    whose union spans the field's full width in x.  ``k`` barriers must
    be node-disjoint (each crossing is detected at least ``k`` times).
    """

    LEFT = -1
    RIGHT = -2

    def __init__(
        self,
        deployment: GridDeployment,
        radius_m: float,
    ) -> None:
        if radius_m < 0:
            raise ConfigurationError(f"radius must be >= 0, got {radius_m}")
        self.deployment = deployment
        self.radius_m = radius_m
        self.x_min = deployment.origin.x
        self.x_max = (
            deployment.origin.x
            + (deployment.columns - 1) * deployment.spacing_m
        )

    def coverage_graph(self) -> networkx.Graph:
        """Disk-overlap graph with virtual left/right boundary nodes."""
        import networkx as nx

        graph = nx.Graph()
        graph.add_node(self.LEFT)
        graph.add_node(self.RIGHT)
        nodes = list(self.deployment)
        for node in nodes:
            graph.add_node(node.node_id)
            if node.anchor.x - self.radius_m <= self.x_min:
                graph.add_edge(self.LEFT, node.node_id)
            if node.anchor.x + self.radius_m >= self.x_max:
                graph.add_edge(node.node_id, self.RIGHT)
        for a, b in itertools.combinations(nodes, 2):
            if a.anchor.distance_to(b.anchor) <= 2.0 * self.radius_m:
                graph.add_edge(a.node_id, b.node_id)
        return graph

    def analyze(self, k: int = 1) -> BarrierResult:
        """Find up to ``k`` node-disjoint barriers (greedy extraction)."""
        import networkx as nx

        if k < 1:
            raise ConfigurationError(f"k must be >= 1, got {k}")
        graph = self.coverage_graph()
        barriers: list[tuple[int, ...]] = []
        while len(barriers) < k:
            try:
                path = nx.shortest_path(graph, self.LEFT, self.RIGHT)
            except nx.NetworkXNoPath:
                break
            chain = tuple(n for n in path if n >= 0)
            if not chain:
                break
            barriers.append(chain)
            graph.remove_nodes_from(chain)
        return BarrierResult(
            k=k,
            covered=len(barriers) >= k,
            barrier_node_ids=tuple(barriers),
        )

    def max_barriers(self) -> int:
        """Greedy count of node-disjoint barriers available."""
        result = self.analyze(k=len(self.deployment.nodes) + 1)
        return result.n_barriers

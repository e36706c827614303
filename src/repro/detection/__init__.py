"""The paper's primary contribution: the SID detection system.

Pure algorithms, independent of the network simulator:

- :mod:`repro.detection.preprocess` — Sec. IV-B signal conditioning
  (1 Hz low-pass, gravity removal, rectification);
- :mod:`repro.detection.node_detector` — the node-level detector
  (the adaptive baseline, deviations, anomaly frequency and crossing
  energy of eqs. 4-8) fed one window at a time, emitting
  :class:`repro.detection.reports.NodeReport`;
- :mod:`repro.detection.fleet` — the same eqs. 4-8 walked for every
  node at once, over whole records or chunks;
- :mod:`repro.detection.correlation` — spatial/temporal correlation
  coefficients (eqs. 9-13);
- :mod:`repro.detection.cluster` — static cells and the on-demand
  temporary-cluster state machine (Sec. IV-C);
- :mod:`repro.detection.speed` — ship speed and heading estimation
  (eqs. 14-16);
- :mod:`repro.detection.sink` — sink-level fusion;
- :mod:`repro.detection.sid` — the paper's Algorithm SID wired end to
  end on one node.
"""

from repro.detection.classifier import (
    Classification,
    EventClass,
    EventClassifier,
    EventFeatures,
)
from repro.detection.dutycycle import DutyCycleConfig, DutyCycleController
from repro.detection.cluster import (
    ClusterEvent,
    StaticCluster,
    TemporaryCluster,
    TemporaryClusterConfig,
    partition_static_clusters,
)
from repro.detection.correlation import (
    cluster_correlation,
    longest_consistent_chain,
    majority_side,
    row_energy_correlation,
    row_time_correlation,
)
from repro.detection.fleet import FleetDetector, FleetMember, FleetStream
from repro.detection.node_detector import (
    NodeDetector,
    NodeDetectorConfig,
    window_starts,
)
from repro.detection.preprocess import (
    PreprocessConfig,
    StreamingPreprocessor,
    preprocess_z_counts,
    preprocess_z_counts_batch,
)
from repro.detection.reports import (
    ClusterReport,
    NodeReport,
    RowObservation,
    SinkDecision,
)
from repro.detection.sid import SIDNode, SIDNodeConfig, SIDState
from repro.detection.sink import Sink
from repro.detection.speed import (
    SpeedEstimate,
    estimate_heading_alpha_rad,
    estimate_ship_speed,
)

__all__ = [
    "Classification",
    "DutyCycleConfig",
    "DutyCycleController",
    "EventClass",
    "EventClassifier",
    "EventFeatures",
    "FleetDetector",
    "FleetMember",
    "FleetStream",
    "ClusterEvent",
    "ClusterReport",
    "NodeDetector",
    "NodeDetectorConfig",
    "NodeReport",
    "PreprocessConfig",
    "RowObservation",
    "SIDNode",
    "SIDNodeConfig",
    "SIDState",
    "Sink",
    "SinkDecision",
    "SpeedEstimate",
    "StaticCluster",
    "StreamingPreprocessor",
    "TemporaryCluster",
    "TemporaryClusterConfig",
    "cluster_correlation",
    "estimate_heading_alpha_rad",
    "estimate_ship_speed",
    "longest_consistent_chain",
    "majority_side",
    "partition_static_clusters",
    "preprocess_z_counts",
    "preprocess_z_counts_batch",
    "row_energy_correlation",
    "row_time_correlation",
    "window_starts",
]

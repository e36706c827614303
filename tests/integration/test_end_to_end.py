"""End-to-end integration tests: sea state to sink decision.

These exercise the full stack on paper-scale scenarios — slower than
unit tests but still seconds each.  They pin the system-level contract:
a crossing ship is confirmed through the real protocol path, a quiet
sea is not, and the confirmed report carries usable physics.
"""

from __future__ import annotations

import pytest

from repro.detection.cluster import ClusterEvent
from repro.detection.node_detector import NodeDetectorConfig
from repro.detection.sid import SIDNodeConfig
from repro.scenario.metrics import classify_alarms
from repro.scenario.presets import paper_scenario
from repro.scenario.runner import (
    FleetRecording,
    run_network_scenario,
    run_offline_scenario,
)
from repro.scenario.synthesis import synthesize_fleet_traces

DETECTOR = NodeDetectorConfig(m=2.0, af_threshold=0.5)


@pytest.fixture(scope="module")
def crossing_result():
    dep, ship, synth = paper_scenario(seed=3)
    res = run_offline_scenario(
        dep, [ship], detector_config=DETECTOR, synthesis_config=synth, seed=3
    )
    return dep, ship, res


class TestOfflineCrossing:
    def test_most_nodes_detect(self, crossing_result):
        dep, _, res = crossing_result
        reporting = sum(1 for v in res.merged_by_node.values() if v)
        assert reporting > len(dep) // 2

    def test_alarms_align_with_truth(self, crossing_result):
        _, _, res = crossing_result
        tp = fp = 0
        for nid, reports in res.merged_by_node.items():
            ca = classify_alarms(
                reports, res.truth_windows_by_node[nid], tolerance_s=3.0
            )
            tp += ca.true_positives
            fp += ca.false_positives
        assert tp > fp

    def test_some_cluster_confirms(self, crossing_result):
        _, _, res = crossing_result
        events = [e for e, _ in res.cluster_outcomes]
        assert ClusterEvent.CONFIRMED in events

    def test_confirmed_cluster_is_wake_correlated(self, crossing_result):
        _, ship, res = crossing_result
        for event, report in res.cluster_outcomes:
            if event == ClusterEvent.CONFIRMED:
                assert report.correlation >= 0.4
                assert report.n_reports >= 5
                cross = ship.time_at_point(
                    ship.wake().ship_position(200.0)
                )
                # Detection time within the scenario, near the crossing.
                assert 100.0 < report.detection_time < 350.0


class TestQuietSea:
    def test_no_confirmation_without_ship(self):
        dep, ship, synth = paper_scenario(seed=17)
        res = run_offline_scenario(
            dep,
            [],
            detector_config=NodeDetectorConfig(m=2.0, af_threshold=0.6),
            synthesis_config=synth,
            track_hypothesis=ship.travel_line(),
            seed=17,
        )
        events = [e for e, _ in res.cluster_outcomes]
        assert ClusterEvent.CONFIRMED not in events


class TestNetworkedCrossing:
    def test_sink_confirms_over_radio(self):
        dep, ship, synth = paper_scenario(seed=6)
        res = run_network_scenario(
            dep,
            [ship],
            sid_config=SIDNodeConfig(detector=DETECTOR),
            synthesis_config=synth,
            seed=6,
        )
        assert res.intrusion_detected
        confirmed = [d for d in res.decisions if d.intrusion]
        assert confirmed
        # The decision happens after the crossing, within the run.
        assert 150.0 < confirmed[0].time < 500.0

    def test_protocol_traffic_is_bounded(self):
        dep, ship, synth = paper_scenario(seed=6)
        res = run_network_scenario(
            dep,
            [ship],
            sid_config=SIDNodeConfig(detector=DETECTOR),
            synthesis_config=synth,
            seed=6,
        )
        # Feature-only reporting: a handful of frames per node, not a
        # raw-sample torrent (Sec. IV-A's design argument).
        assert res.mac_stats["transmissions"] < 40 * len(dep)


class TestSpeedThroughFullPipeline:
    def test_confirmed_decision_can_carry_speed(self):
        # Use a steeper-but-valid angle so eq. 16 is well conditioned.
        dep, ship, synth = paper_scenario(seed=8, alpha_deg=60.0)
        res = run_offline_scenario(
            dep,
            [ship],
            detector_config=NodeDetectorConfig(m=2.0, af_threshold=0.4),
            synthesis_config=synth,
            seed=8,
        )
        speeds = [
            r.speed_estimate_mps
            for e, r in res.cluster_outcomes
            if e == ClusterEvent.CONFIRMED and r.speed_estimate_mps
        ]
        if speeds:  # geometry-dependent; when present it must be sane
            for v in speeds:
                assert 0.3 * ship.speed_mps < v < 3.0 * ship.speed_mps


class TestClassifierOnScenario:
    def test_detected_wake_events_classified_as_ship(self):
        """Cross-module loop: detect events, classify their segments."""
        from repro.constants import ACCEL_COUNTS_PER_G
        from repro.detection.classifier import EventClass, EventClassifier

        dep, ship, synth = paper_scenario(seed=4)
        traces = synthesize_fleet_traces(dep, [ship], synth, seed=4)
        res = run_offline_scenario(
            dep,
            [ship],
            detector_config=NodeDetectorConfig(m=2.0, af_threshold=0.6),
            recording=FleetRecording.from_traces(dep, traces),
        )
        classifier = EventClassifier()
        labels = []
        for nid, reports in res.merged_by_node.items():
            trace = traces[nid]
            for r in reports:
                k = int((r.onset_time - trace.t0) * trace.rate_hz)
                lo = max(k - 250, 0)
                hi = min(k + 750, len(trace))
                segment = (
                    trace.z[lo:hi].astype(float) - ACCEL_COUNTS_PER_G
                )
                if segment.size < 64:
                    continue
                labels.append(classifier.classify(segment).label)
        assert labels, "no events to classify"
        ship_like = sum(1 for x in labels if x == EventClass.SHIP_WAKE)
        # Most detected events around a real crossing classify as wake.
        assert ship_like / len(labels) > 0.5

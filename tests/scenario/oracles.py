"""Reference walks the scenario runners are checked against.

Each runner runs one lockstep :class:`~repro.detection.fleet.FleetDetector`
walk.  The functions here are the plain per-node (or per-window)
formulations of the same detection, kept as test oracles:

- :func:`offline_reports` — one ``NodeDetector`` per node fed every
  window of its trace (what ``run_offline_scenario`` must reproduce);
- :func:`network_outcomes` — the crash-masked per-node window walk,
  with its own crash rule, checked against the network runner's window
  plan and precompute (and substituted for the precompute to run the
  event loop end to end); :func:`outcome_rows` lists either one's
  outcomes window by window for comparison;
- :func:`full_schedule` — the network runner's schedule without its
  event diet: every live window fed and every grid tick at which the
  node is up queued up front, which the diet must equal;
- :func:`sequential_dutycycle` — the node-by-node, window-by-window
  duty-cycle loop, with the signature of ``runner._dutycycled_reports``.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from itertools import repeat
from typing import Iterator, Optional

import numpy as np
import pytest

from repro.detection.dutycycle import DutyCycleController
from repro.detection.node_detector import (
    NodeDetector,
    NodeDetectorConfig,
    window_starts,
)
from repro.detection.preprocess import preprocess_z_counts
from repro.detection.reports import NodeReport
from repro.faults.plan import FaultPlan
from repro.network.nodeproc import NetworkNode
from repro.scenario import runner
from repro.scenario.deployment import GridDeployment
from repro.scenario.runner import FleetRecording, NodeOutcomes, WindowOutcomes
from repro.types import AccelTrace
from tests.detection.oracles import node_window_walk


def offline_reports(
    deployment: GridDeployment,
    traces: dict[int, AccelTrace],
    det_cfg: NodeDetectorConfig,
) -> dict[int, list[NodeReport]]:
    """Per-node offline detection: each trace preprocessed on its own
    and walked window by window through its node's ``NodeDetector``."""
    reports_by_node = {}
    for node in deployment:
        detector = NodeDetector(
            node.node_id,
            node.anchor,
            det_cfg,
            row=node.row,
            column=node.column,
        )
        trace = traces[node.node_id]
        det_cfg.check_sample_rate(trace.rate_hz)
        a = preprocess_z_counts(trace.z, det_cfg.rate_hz, det_cfg.preprocess)
        reports_by_node[node.node_id] = node_window_walk(detector, a, trace.t0)
    return reports_by_node


def network_outcomes(
    deployment: GridDeployment,
    recording: FleetRecording,
    det_cfg: NodeDetectorConfig,
    faults: FaultPlan | None,
    now: float,
) -> WindowOutcomes:
    """What each node's own detector sees when fed at window end times.

    A crashed node's feed returns before touching its detector.  The
    crash is scheduled before the feeds and pops first on a time tie;
    the reboot is scheduled during the run, after the feeds, so a feed
    at the reboot instant still finds the node dead.  Every evaluated
    window yields ``(window index, report-or-None, baseline seeded
    after)``, gathered into the runner's per-node arrays.
    """
    rate = det_cfg.rate_hz
    w = det_cfg.window_samples
    out: WindowOutcomes = {}
    crashes = faults.node_crashes if faults is not None else ()
    for i, node in enumerate(deployment):
        t0 = recording.t0s[i]
        down = [
            (
                max(c.at_s, now),
                math.inf
                if c.reboot_after_s is None
                else max(c.at_s, now) + c.reboot_after_s,
            )
            for c in crashes
            if c.node_id == node.node_id
        ]
        detector = NodeDetector(
            node.node_id, node.anchor, det_cfg, row=node.row, column=node.column
        )
        a = preprocess_z_counts(
            recording.z[i], det_cfg.rate_hz, det_cfg.preprocess
        )
        rows = []
        for k, start in enumerate(window_starts(det_cfg, a.size)):
            t_start = t0 + start / rate
            if any(lo <= t_start + w / rate <= hi for lo, hi in down):
                continue
            report = detector.process_window(a[start : start + w], t_start)
            rows.append((k, report, detector.initialized))
        reports = np.empty(len(rows), dtype=object)
        reports[:] = [r for _, r, _ in rows]
        out[node.node_id] = NodeOutcomes(
            windows=np.array([k for k, _, _ in rows], dtype=np.int64),
            reports=reports,
            seeded=np.array([s for _, _, s in rows], dtype=bool),
        )
    return out


def outcome_rows(
    outcomes: WindowOutcomes,
) -> dict[int, list[tuple[int, Optional[NodeReport], bool]]]:
    """Each node's outcomes as ``(window index, report-or-None, seeded
    after)`` rows, one per live window: the form equality reads."""
    return {
        nid: list(
            zip(
                out.windows.tolist(),
                out.reports.tolist(),
                out.seeded.tolist(),
            )
        )
        for nid, out in outcomes.items()
    }


@contextmanager
def full_schedule() -> Iterator[None]:
    """Run ``run_network_scenario`` on its full schedule in the block.

    Feed elision is off (its billing precondition fails), so every live
    window is fed at its end time, and each node queues every grid tick
    at which it is up (one while it is down would return at once) up
    front as one train, in the slot of the runner's dormant tick train:
    the schedule before the event diet.
    """
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(runner, "_billing_order_free", lambda *a: False)
        mp.setattr(NetworkNode, "schedule_ticks", _every_tick)
        yield


def _every_tick(self: NetworkNode, times: list[float]) -> None:
    self._tick_times = times
    self._ticks = self.network.sim.schedule_train(
        zip(times, repeat(self.tick), repeat(()))
    )


def sequential_dutycycle(
    deployment: GridDeployment,
    recording: FleetRecording,
    det_cfg: NodeDetectorConfig,
    coarse_cfg: NodeDetectorConfig,
    decimation: int,
    controller: DutyCycleController,
) -> tuple[dict[int, list[NodeReport]], Optional[float]]:
    """The duty-cycle policy one node-window at a time, in time order.

    Every (window start, node id) pair is visited in turn, so each
    alarm is visible to the very next visit.
    """
    detectors = {
        n.node_id: NodeDetector(
            n.node_id, n.anchor, det_cfg, row=n.row, column=n.column
        )
        for n in deployment
    }
    coarse_detectors = {
        n.node_id: NodeDetector(
            n.node_id, n.anchor, coarse_cfg, row=n.row, column=n.column
        )
        for n in deployment
    }
    preprocessed = {
        nid: preprocess_z_counts(z, det_cfg.rate_hz, det_cfg.preprocess)
        for nid, z in zip(recording.node_ids, recording.z)
    }
    coarse_preprocessed = {
        nid: preprocess_z_counts(
            z[::decimation], coarse_cfg.rate_hz, coarse_cfg.preprocess
        )
        for nid, z in zip(recording.node_ids, recording.z)
    }
    window = det_cfg.window_samples
    coarse_window = coarse_cfg.window_samples
    # Build the (t0, node_id, start) schedule in global time order.
    schedule: list[tuple[float, int, int]] = []
    for (nid, a), t_base in zip(preprocessed.items(), recording.t0s):
        for start in window_starts(det_cfg, len(a)):
            schedule.append((t_base + start / det_cfg.rate_hz, nid, start))
    schedule.sort()

    reports_by_node: dict[int, list[NodeReport]] = {
        nid: [] for nid in preprocessed
    }
    first_alarm: Optional[float] = None
    for t0, nid, start in schedule:
        detector = detectors[nid]
        seg = preprocessed[nid][start : start + window]
        if not detector.initialized:
            # Initialization windows always run (they happen right after
            # deployment, before the duty cycle engages); both rate
            # variants build their baselines during this phase.
            detector.process_window(seg, t0)
            c_start = start // decimation
            coarse_detectors[nid].process_window(
                coarse_preprocessed[nid][c_start : c_start + coarse_window],
                t0,
            )
            continue
        if not controller.is_active(nid, t0):
            continue
        if controller.in_wakeup(t0) or decimation == 1:
            report = detector.process_window(seg, t0)
        else:
            # Sentinel mode: coarse detection at the reduced rate.
            c_start = start // decimation
            c_seg = coarse_preprocessed[nid][
                c_start : c_start + coarse_window
            ]
            report = coarse_detectors[nid].process_window(c_seg, t0)
        if report is not None:
            reports_by_node[nid].append(report)
            controller.alarm(report.onset_time)
            if first_alarm is None:
                first_alarm = report.onset_time
    return reports_by_node, first_alarm

"""Scenario execution: offline (radio-less) and fully networked.

``run_offline_scenario`` is the controlled-experiment path used by the
Table I / Table II / Fig. 11 benchmarks: every node's trace is
synthesised, node-level detection runs locally, and a single temporary
cluster fuses all reports — isolating the *detection* behaviour from
radio losses.

``run_network_scenario`` drives the same detectors through the full
discrete-event stack (flooded cluster setup, lossy member reports,
multihop delivery to the sink) — the configuration the ablation
benchmarks stress.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import asdict, dataclass, field, fields, replace
from typing import TYPE_CHECKING, Iterator, Optional, Sequence

from repro.detection.cluster import (
    ClusterEvent,
    TemporaryCluster,
    TemporaryClusterConfig,
    TravelLine,
)
from repro.detection.fleet import FleetDetector, hop_windows
from repro.detection.node_detector import (
    NodeDetectorConfig,
    merge_reports,
    window_starts,
)
from repro.detection.preprocess import (
    preprocess_z_counts,
    preprocess_z_counts_batch,
)
from repro.detection.reports import ClusterReport, NodeReport, SinkDecision
from repro.detection.sid import SIDNode, SIDNodeConfig
from repro.detection.sink import Sink
from repro.errors import ConfigurationError
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan, FaultStats, Outage
from repro.network.channel import Channel, ChannelConfig
from repro.network.nodeproc import (
    CPU_S_PER_SAMPLE,
    RETRANSMIT_MAX_ATTEMPTS,
    NetworkNode,
    SensorNetwork,
)
from repro.network.selfheal import OrphanEvent, SelfHealingConfig
from repro.network.simulator import TrainItem
from repro.rng import RandomState, derive_rng, make_rng
from repro.sanitize import Sanitizer
import numpy as np
from repro.scenario.deployment import DeployedNode, GridDeployment
from repro.scenario.ship import ShipTrack
from repro.scenario.synthesis import SynthesisConfig, synthesize_fleet_traces
from repro.telemetry.tracer import Tracer, maybe_stage
from repro.types import AccelTrace, TimeWindow

if TYPE_CHECKING:
    from repro.detection.dutycycle import DutyCycleConfig, DutyCycleController


# ----------------------------------------------------------------------
# Offline runner
# ----------------------------------------------------------------------
@dataclass
class OfflineScenarioResult:
    """Everything the controlled experiments need to score a run.

    ``cluster_outcomes`` holds every temporary-cluster evaluation in
    onset order (the offline runner forms clusters sequentially exactly
    like the online protocol: first unassigned report initiates, later
    reports join until the collection window closes).
    ``cluster_event`` / ``cluster_report`` summarise the best outcome —
    a confirmation if any cluster confirmed, else the last evaluation.
    """

    reports_by_node: dict[int, list[NodeReport]]
    merged_by_node: dict[int, list[NodeReport]]
    cluster_event: Optional[ClusterEvent]
    cluster_report: Optional[ClusterReport]
    truth_windows_by_node: dict[int, list[TimeWindow]]
    cluster_outcomes: list[tuple[ClusterEvent, Optional[ClusterReport]]] = field(
        default_factory=list
    )

    @property
    def all_reports(self) -> list[NodeReport]:
        """All window-level reports across nodes, by onset time."""
        out: list[NodeReport] = []
        for reports in self.reports_by_node.values():
            out.extend(reports)
        return sorted(out, key=lambda r: r.onset_time)

    @property
    def all_merged(self) -> list[NodeReport]:
        """All merged (per-event) reports across nodes."""
        out: list[NodeReport] = []
        for reports in self.merged_by_node.values():
            out.extend(reports)
        return sorted(out, key=lambda r: r.onset_time)


def truth_windows_for(
    deployment: GridDeployment,
    ships: Sequence[ShipTrack],
    pad_s: float = 1.0,
) -> dict[int, list[TimeWindow]]:
    """Ground-truth disturbance windows per node, from the wake model."""
    out: dict[int, list[TimeWindow]] = {n.node_id: [] for n in deployment}
    for ship in ships:
        wake = ship.wake()
        for node in deployment:
            arrival = wake.arrival_time(node.anchor)
            duration = wake.train_duration_at(node.anchor)
            out[node.node_id].append(
                TimeWindow(arrival - pad_s, arrival + duration + pad_s)
            )
    return out


@dataclass(frozen=True, eq=False)
class FleetRecording:
    """A synthesised fleet as detection sees it: raw z counts only.

    ``z`` holds the ``(nodes, samples)`` int64 raw z counts, rows in
    deployment order (``node_ids``), each row starting at its mote's
    local clock reading ``t0s[i]``; every row is sampled at
    ``rate_hz``.  Detection reads nothing else of a trace, so one
    recording can be detected under any number of detector settings.
    ``z`` is made read-only, so no caller can corrupt a shared
    recording.  The recording also keeps the last preprocessed matrix
    :func:`_fleet_samples` made of it (read-only, keyed by decimation,
    rate and preprocessing config), so detecting it again under the
    same conditioning chain filters nothing; a recording made with
    :func:`dataclasses.replace` starts without one.
    """

    node_ids: tuple[int, ...]
    t0s: tuple[float, ...]
    rate_hz: float
    z: np.ndarray
    _samples: Optional[tuple[tuple[object, ...], np.ndarray]] = field(
        default=None, init=False, repr=False
    )

    def __post_init__(self) -> None:
        self.z.flags.writeable = False

    @classmethod
    def from_traces(
        cls, deployment: GridDeployment, traces: dict[int, AccelTrace]
    ) -> "FleetRecording":
        """Stack the z axes of a deployment's synthesised traces.

        The fleet walks one Delta-t window grid, so traces sampled at
        different rates raise :class:`ConfigurationError`.
        """
        fleet = [traces[node.node_id] for node in deployment]
        rates = sorted({trace.rate_hz for trace in fleet})
        if len(rates) > 1:
            raise ConfigurationError(
                f"a fleet recording needs one sample rate, got {rates} Hz"
            )
        return cls(
            node_ids=tuple(node.node_id for node in deployment),
            t0s=tuple(trace.t0 for trace in fleet),
            rate_hz=rates[0],
            z=np.stack([trace.z for trace in fleet]),
        )


def _fleet_samples(
    recording: FleetRecording,
    det_cfg: NodeDetectorConfig,
    decimation: int = 1,
) -> tuple[np.ndarray, tuple[float, ...]]:
    """Check and preprocess a fleet recording for the window walk.

    Returns the preprocessed ``(nodes, samples)`` matrix, rows in
    deployment order, and each row's start time.  ``decimation`` keeps
    every n-th raw sample, and ``det_cfg`` is the detector of that
    decimated stream; the chain allocates a fresh C-contiguous matrix,
    so the strided view costs no copy of its own.  The matrix is
    read-only and stays with the recording until a different chain
    replaces it, so detector settings that differ only in eqs. 4-8
    share one filtering.  A (decimated) rate off the detector's
    ``rate_hz`` would mis-time the shared window grid, so it raises.
    """
    det_cfg.check_sample_rate(recording.rate_hz / decimation)
    key = (decimation, det_cfg.rate_hz, det_cfg.preprocess)
    cached = recording._samples
    if cached is None or cached[0] != key:
        samples = preprocess_z_counts_batch(
            recording.z[:, ::decimation], det_cfg.rate_hz, det_cfg.preprocess
        )
        samples.flags.writeable = False
        cached = (key, samples)
        # The recording is frozen; the slot is a cache, not its data.
        object.__setattr__(recording, "_samples", cached)
    return cached[1], recording.t0s


def fuse_sequential_clusters(
    merged_all: Sequence[NodeReport],
    cluster_config: TemporaryClusterConfig | None,
    track_hypothesis: TravelLine | None,
) -> tuple[
    list[tuple[ClusterEvent, Optional[ClusterReport]]],
    Optional[ClusterEvent],
    Optional[ClusterReport],
]:
    """Form and evaluate sequential temporary clusters from reports.

    The online protocol's cluster formation, replayed offline: the
    earliest unassigned report initiates; reports inside the collection
    window join; the next report after the window opens a fresh cluster.
    Returns (all outcomes in onset order, best event, best report) —
    the best outcome is the first confirmation, else the last
    evaluation.
    """
    outcomes: list[tuple[ClusterEvent, Optional[ClusterReport]]] = []
    idx = 0
    while idx < len(merged_all):
        cluster = TemporaryCluster(merged_all[idx], cluster_config)
        idx += 1
        while idx < len(merged_all) and cluster.add_report(merged_all[idx]):
            idx += 1
        outcomes.append(cluster.evaluate(track_hypothesis))
    cluster_event: Optional[ClusterEvent] = None
    cluster_report: Optional[ClusterReport] = None
    for event, report in outcomes:
        cluster_event, cluster_report = event, report
        if event == ClusterEvent.CONFIRMED:
            break
    return outcomes, cluster_event, cluster_report


def run_offline_scenario(
    deployment: GridDeployment,
    ships: Sequence[ShipTrack] = (),
    detector_config: NodeDetectorConfig | None = None,
    cluster_config: TemporaryClusterConfig | None = None,
    synthesis_config: SynthesisConfig | None = None,
    track_hypothesis: TravelLine | None = None,
    recording: FleetRecording | None = None,
    seed: RandomState = None,
    tracer: Optional[Tracer] = None,
) -> OfflineScenarioResult:
    """Synthesise, detect, and fuse one scenario without a radio.

    ``track_hypothesis`` defaults to the first ship's ground-truth
    line (the controlled setting of Tables I/II); pass an explicit
    hypothesis for no-ship runs.  Without either, each cluster fits its
    line from its own reports, as the online heads of
    :func:`run_network_scenario` always do.

    ``recording`` (optional) is an already-synthesised fleet of this
    deployment to detect instead of synthesising one, so a driver can
    detect one scenario under many detector settings (and with
    nuisance disturbances: see :func:`synthesize_fleet_traces`).  It
    replaces ``synthesis_config`` and ``seed``, which must then stay
    unset; ``ships`` still sets the truth windows and the default track
    hypothesis.

    Detection is one lockstep :class:`FleetDetector` walk over the
    whole fleet, bit-identical to running a ``NodeDetector`` per node.

    ``tracer`` (optional) traces detection events and profiles the
    synthesis/detection/fusion stages; ``None`` — the default — keeps
    the run free of any instrumentation overhead and bit-identical to
    an untraced run.
    """
    det_cfg = detector_config if detector_config is not None else NodeDetectorConfig()
    if recording is None:
        synth = (
            synthesis_config if synthesis_config is not None else SynthesisConfig()
        )
        with maybe_stage(tracer, "synthesis"):
            recording = FleetRecording.from_traces(
                deployment,
                synthesize_fleet_traces(deployment, ships, synth, seed=seed),
            )
    elif synthesis_config is not None or seed is not None:
        raise ConfigurationError(
            "a recording replaces synthesis: pass no synthesis_config "
            "or seed with it"
        )
    elif recording.node_ids != tuple(node.node_id for node in deployment):
        raise ConfigurationError(
            "the recording's node ids do not match the deployment's"
        )
    with maybe_stage(tracer, "detection"):
        fleet = FleetDetector.from_deployment(deployment, det_cfg, tracer)
        reports_by_node = fleet.process_samples(
            *_fleet_samples(recording, det_cfg)
        )
    return fuse_offline_reports(
        deployment, ships, reports_by_node, cluster_config, track_hypothesis, tracer
    )


def fuse_offline_reports(
    deployment: GridDeployment,
    ships: Sequence[ShipTrack],
    reports_by_node: dict[int, list[NodeReport]],
    cluster_config: TemporaryClusterConfig | None,
    track_hypothesis: TravelLine | None,
    tracer: Optional[Tracer],
) -> OfflineScenarioResult:
    """The radio-less runners' fusion tail, after detection.

    Merges each node's window reports into events, fuses every node's
    events in onset order through :func:`fuse_sequential_clusters`
    (the ``"fusion"`` stage), and attaches the ships' truth windows to
    the result.  ``track_hypothesis`` defaults to the first ship's line.
    """
    merged_by_node = {
        nid: merge_reports(reports)
        for nid, reports in reports_by_node.items()
    }
    merged_all = sorted(
        (r for rs in merged_by_node.values() for r in rs),
        key=lambda r: r.onset_time,
    )
    if track_hypothesis is None and ships:
        track_hypothesis = ships[0].travel_line()
    with maybe_stage(tracer, "fusion"):
        outcomes, cluster_event, cluster_report = fuse_sequential_clusters(
            merged_all, cluster_config, track_hypothesis
        )
    return OfflineScenarioResult(
        cluster_outcomes=outcomes,
        reports_by_node=reports_by_node,
        merged_by_node=merged_by_node,
        cluster_event=cluster_event,
        cluster_report=cluster_report,
        truth_windows_by_node=truth_windows_for(deployment, ships),
    )


# ----------------------------------------------------------------------
# Networked runner
# ----------------------------------------------------------------------
@dataclass
class NetworkScenarioResult:
    """Outcome of a full discrete-event run.

    ``fault_stats`` merges the injection counters (what the
    :class:`~repro.faults.plan.FaultPlan` actually did) with the
    resilience counters (what the degradation machinery absorbed);
    it is empty for unfaulted runs.
    """

    decisions: tuple[SinkDecision, ...]
    mac_stats: dict[str, int]
    lost_to_partition: int
    sink_frames: int
    fault_stats: dict[str, float] = field(default_factory=dict)
    degraded_decisions: int = 0
    degraded_cluster_reports: int = 0
    resyncs_performed: int = 0
    clock_rms_error_s: float = 0.0
    #: Orphaned-subtree episodes (node ids + duration), recorded
    #: whether or not healing was armed.
    degradation_events: tuple[OrphanEvent, ...] = ()

    @property
    def intrusion_detected(self) -> bool:
        """True when any sink decision confirmed an intrusion."""
        return any(d.intrusion for d in self.decisions)

    @property
    def faults_injected(self) -> int:
        """Total discrete fault events injected across all layers.

        Sums the :class:`~repro.faults.plan.FaultStats` entries of
        ``fault_stats`` except the per-sample volume
        ``sensor_samples_faulted``.
        """
        return sum(
            self.fault_stats.get(f.name, 0)
            for f in fields(FaultStats)
            if f.name != "sensor_samples_faulted"
        )


@dataclass(frozen=True, eq=False)
class WindowPlan:
    """One network run's Delta-t windows, planned before the event loop.

    ``starts`` holds the window start sample indices every node shares.
    ``t_start`` and ``t_end`` are ``(nodes, windows)`` window start and
    end times on each node's own clock, rows in deployment order; a
    window's feed fires at its end time.  ``live`` is False where the
    node is planned down at that end time, so the window is never fed.
    ``outages`` lists each row's planned outages.
    """

    starts: list[int]
    t_start: np.ndarray
    t_end: np.ndarray
    live: np.ndarray
    outages: list[list[Outage]]


def _up(t: np.ndarray, outages: Sequence[Outage]) -> np.ndarray:
    """Where a node is up at times ``t``: outside each of its outages.

    Outages are closed intervals: the crash is queued at install time,
    before every node train, so it pops first on a time tie; the
    reboot is queued during the run, after them, so a feed or tick at
    the reboot instant still finds the node down.
    """
    up = np.ones(t.shape, dtype=bool)
    for outage in outages:
        up &= (t < outage.start_s) | (t > outage.end_s)
    return up


def _window_plan(
    recording: FleetRecording,
    det_cfg: NodeDetectorConfig,
    faults: FaultPlan | None,
    now: float,
) -> WindowPlan:
    """Plan every node's windows and the crash windows it misses.

    A window is dead iff its end time falls inside one of the node's
    outages (:meth:`~repro.faults.plan.FaultPlan.outages`: closed
    intervals, ``inf`` without a reboot; see :func:`_up`), which the
    fault injector reads too.  (Battery depletion also skips windows,
    but a depleted node never comes back, so the feed's own gate
    handles it.)  A recording sampled off the detector's ``rate_hz``
    would mis-time the plan, so it raises.
    """
    det_cfg.check_sample_rate(recording.rate_hz)
    starts = window_starts(det_cfg, recording.z.shape[1])
    rate = det_cfg.rate_hz
    t_start = np.asarray(recording.t0s)[:, None] + np.asarray(starts) / rate
    t_end = t_start + det_cfg.window_samples / rate
    row = {nid: i for i, nid in enumerate(recording.node_ids)}
    outages: list[list[Outage]] = [[] for _ in row]
    for outage in faults.outages(now) if faults is not None else ():
        i = row.get(outage.crash.node_id)
        if i is not None:
            outages[i].append(outage)
    live = np.array(
        [_up(t, down) for t, down in zip(t_end, outages)], dtype=bool
    ).reshape(t_end.shape)
    return WindowPlan(
        starts=starts, t_start=t_start, t_end=t_end, live=live, outages=outages
    )


@dataclass(frozen=True, eq=False)
class NodeOutcomes:
    """One node's live-window outcomes from the network precompute.

    Three arrays over the node's live windows, in window order:
    ``windows`` holds their indices into the :class:`WindowPlan`,
    ``reports`` (dtype object) each window's report or None, and
    ``seeded`` whether the baseline is seeded after the window.
    """

    windows: np.ndarray
    reports: np.ndarray
    seeded: np.ndarray

    @property
    def reported(self) -> np.ndarray:
        """True where the window raised a report."""
        return np.not_equal(self.reports, None)


#: Per-node window outcomes of the network precompute, keyed by node id.
WindowOutcomes = dict[int, NodeOutcomes]


def _fleet_network_outcomes(
    deployment: GridDeployment,
    recording: FleetRecording,
    det_cfg: NodeDetectorConfig,
    plan: WindowPlan,
) -> WindowOutcomes:
    """Precompute every node's live-window outcomes for the event loop.

    Detection is purely local (no radio feedback reaches eqs. 4-8), so
    the whole fleet's Delta-t walk can run vectorized before the
    discrete-event simulation starts: one kernel call over the hop
    grid, with the plan's window start times, plus one for a trailing
    right-aligned window off the grid.  The only run-time influence on
    a node's detector state is a window it never evaluates, and the
    plan's ``live`` mask says which: dead windows are left untouched.
    A fresh detector seeds a row at its ``init_windows``-th live
    window, so its running live count says when it is seeded.
    """
    a, _ = _fleet_samples(recording, det_cfg)
    fleet = FleetDetector.from_deployment(deployment, det_cfg)
    w, hop = det_cfg.window_samples, det_cfg.hop_samples
    n_grid = len(range(0, a.shape[1] - w + 1, hop))
    reports: list[Optional[NodeReport]] = []
    if n_grid:
        reports = fleet.step(
            hop_windows(a, 0, n_grid, w, hop),
            plan.t_start[:, :n_grid],
            active=plan.live[:, :n_grid],
        )
    if len(plan.starts) > n_grid:
        start = plan.starts[-1]
        reports += fleet.step(
            a[:, start : start + w], plan.t_start[:, -1], active=plan.live[:, -1]
        )
    # The kernel lists reports window by window, nodes within a window.
    grid = np.empty(len(reports), dtype=object)
    grid[:] = reports
    grid = grid.reshape(len(plan.starts), len(recording.node_ids)).T
    seeded = np.cumsum(plan.live, axis=1) >= det_cfg.init_windows
    outcomes: WindowOutcomes = {}
    for i, nid in enumerate(recording.node_ids):
        ks = np.flatnonzero(plan.live[i])
        outcomes[nid] = NodeOutcomes(ks, grid[i, ks], seeded[i, ks])
    return outcomes


def _tick_times(t0: float, step: float, horizon: float) -> np.ndarray:
    """The times ``t = t0 + step; while t < horizon: t += step`` visits.

    ``np.add.accumulate`` adds in order, so every time is bit-equal to
    the loop's; two extra steps past the estimated count outrun any
    rounding in the estimate.
    """
    steps = np.full(max(int((horizon - t0) / step) + 3, 1), step)
    steps[0] = t0 + step
    t = np.add.accumulate(steps)
    return t[: np.searchsorted(t, horizon)]


def _outcome_feeds(
    proc: NetworkNode,
    window: int,
    outcomes: NodeOutcomes,
    t_start: list[float],
    t_end: list[float],
    elide: bool,
) -> Iterator[TrainItem]:
    """One node's feed train on the precompute, decided at run time.

    Without ``elide`` every live window replays its outcome at its end
    time.  With it, the train decides one item per firing, on the node
    state at that moment: it feeds the next report window or, if
    sooner, the first window at or after the deadline of the cluster
    the node heads; the quiet windows before that one are billed by a
    catch-up item at the last one's end time.  A skipped window cannot
    have been the one that evaluates the cluster: a cluster opens only
    at one of the node's own report windows, which are all fed, and
    its deadline only moves later, so a window before the deadline seen
    at decision time stays before the real one.
    """
    feed, catch_up = proc.feed_outcome, proc.catch_up_quiet_windows
    reports = outcomes.reports.tolist()
    seeded = outcomes.seeded.tolist()
    n = len(reports)
    reported = np.flatnonzero(outcomes.reported).tolist() + [n]
    sid = proc.sid
    p = 0
    while p < n:
        if elide:
            q = reported[bisect_left(reported, p)]
            deadline = sid.cluster_deadline
            if deadline is not None:
                q = min(q, bisect_left(t_end, deadline, p))
            if q > p:
                yield t_end[q - 1], catch_up, (q - p, window)
                p = q
                continue
        yield t_end[p], feed, (reports[p], window, t_start[p], seeded[p])
        p += 1


def _window_feeds(
    proc: NetworkNode,
    row: np.ndarray,
    starts: list[int],
    t_start: list[float],
    t_end: list[float],
    window: int,
) -> Iterator[TrainItem]:
    """One node's feed train at event time: each live window of its
    preprocessed ``row``, sliced when the train reaches it."""
    feed = proc.feed_window
    for start, ts, te in zip(starts, t_start, t_end):
        yield te, feed, (row[start : start + window], ts)


def _billing_order_free(
    deployment: GridDeployment,
    outcomes: WindowOutcomes,
    det_cfg: NodeDetectorConfig,
    retransmit: bool,
) -> bool:
    """True when no battery can possibly deplete during the event loop.

    Deferring a quiet window's ``draw_cpu`` to a batched catch-up event
    reorders it against interleaved radio draws; energy sums commute,
    so the reorder is observable only through the depletion gate (and
    the low-charge watch, which only the healing path arms).  This
    check proves depletion unreachable: each battery's remaining charge
    must exceed its full-run CPU billing plus a crude upper bound on
    fleet-wide radio traffic — every report dispatch can fan out floods
    and relays to every node, generously oversized per frame, and with
    ``retransmit`` (an active fault plan) every report may go out
    ``1 + RETRANSMIT_MAX_ATTEMPTS`` times.  A deployment running
    batteries tight enough to fail this simply keeps the
    one-event-per-window schedule.
    """
    n_nodes = sum(1 for _ in deployment)
    n_dispatches = sum(
        int(np.count_nonzero(out.reported)) for out in outcomes.values()
    )
    frame_bytes_bound = n_dispatches * 4 * (n_nodes + 1) * 512
    if retransmit:
        frame_bytes_bound *= 1 + RETRANSMIT_MAX_ATTEMPTS
    cpu_s_per_window = CPU_S_PER_SAMPLE * det_cfg.window_samples
    for node in deployment:
        battery = node.mote.battery
        if battery is None:
            continue
        costs = battery.costs
        cpu_j = (
            outcomes[node.node_id].windows.size
            * cpu_s_per_window
            * costs.cpu_j_per_s
        )
        radio_j = frame_bytes_bound * max(
            costs.tx_j_per_byte, costs.rx_j_per_byte
        )
        if battery.remaining_j <= 2.0 * (cpu_j + radio_j):
            return False
    return True


def run_network_scenario(
    deployment: GridDeployment,
    ships: Sequence[ShipTrack] = (),
    sid_config: SIDNodeConfig | None = None,
    synthesis_config: SynthesisConfig | None = None,
    channel_config: ChannelConfig | None = None,
    faults: FaultPlan | None = None,
    healing: SelfHealingConfig | None = None,
    resync_interval_s: float | None = 120.0,
    seed: RandomState = None,
    tracer: Optional[Tracer] = None,
    sanitizer: Optional[Sanitizer] = None,
) -> NetworkScenarioResult:
    """Run one scenario through the full network stack.

    Every node feeds its Delta-t windows into its SID state machine at
    the window end times, through one re-arming queue entry per node
    (:meth:`~repro.network.simulator.Simulator.schedule_train`);
    protocol traffic rides the lossy simulated radio.  Unlike the
    controlled offline experiments, the online system has no
    ground-truth sailing line: every temporary-cluster head fits its
    line from its own reports (:meth:`TravelLine.fit_from_reports`).

    ``faults`` injects the plan's sensor / node / network pathologies
    into the run (sensor faults act on the z counts synthesis
    recorded); an absent or empty plan leaves every code path — and
    every random stream — exactly as the unfaulted runner draws them.
    An active plan also arms the degradation machinery: degraded-quorum
    cluster evaluation and report retransmission (DESIGN.md §6).

    ``healing`` arms the self-healing runtime (route repair around
    dead parents, hop-by-hop relay retries, cold-restart recovery).
    ``None`` — the default — installs nothing and keeps every path
    bit-identical to the pre-healing transport.

    Both feed paths evaluate the windows of one per-run plan: a window
    whose end time falls in a planned crash is never scheduled.
    Without healing, every live window's outcome is precomputed by one
    lockstep :class:`FleetDetector` walk over the fleet's preprocessed
    recording and replayed through the event loop.  A cold restart
    resets a node's eq. 5 baseline at run time, which that precompute
    cannot model, so a healing-armed run instead preprocesses each
    node's trace on its own and feeds its raw windows into the node's
    own detector at event time.

    ``resync_interval_s`` schedules a periodic fleet-wide time-sync
    beacon (None disables it); crashed nodes miss their beacons and a
    plan's :class:`~repro.faults.plan.ClockSyncFailure` suppresses
    them per node, letting drift accumulate unbounded.

    ``tracer`` (optional) traces the run end to end — frame
    tx/rx/drop, heal/fault/detection events, profiling spans, and the
    scheduler's terminal counters on the ``event_loop`` span.  ``None``
    (the default) installs nothing: every emission site reduces to one
    attribute check and the run stays bit-identical to seed.

    Events go only where a node's state can change.  Each node's
    cluster-evaluation ticks (every ``window_s`` on its own clock) are
    queued only while it heads an open temporary cluster, in every run.
    On the precomputed path a node's quiet windows are fed only where
    one may reach the deadline of a cluster the node heads; each other
    run of them is billed by one catch-up item with arithmetically
    identical draws.  That feed elision needs a plan of node crashes
    and reboots at most (no battery drain, sensor or network fault)
    and batteries that cannot deplete; otherwise every live window is
    fed.  Either way the result equals the full schedule's: every live
    window fed and every grid tick fired.

    ``sanitizer`` (optional) attaches a :class:`repro.sanitize.
    Sanitizer` recording probe: per-event shadow access sets, order-
    race detection at shared timestamps, RNG stream provenance, and a
    battery-billing audit reconciled against the schedule this runner
    declares (DESIGN.md §15).  Recording never perturbs the run — the
    tracked RNG streams share their originals' bit generators — so a
    sanitized run is digest-identical to an unsanitized one; call
    ``sanitizer.report()`` after the run for the findings.
    """
    if resync_interval_s is not None and resync_interval_s <= 0:
        raise ConfigurationError(
            f"resync_interval_s must be positive, got {resync_interval_s}"
        )
    base = make_rng(seed)
    root = int(base.integers(2**31))
    cfg = sid_config if sid_config is not None else SIDNodeConfig()
    synth = synthesis_config if synthesis_config is not None else SynthesisConfig()
    injector = FaultInjector(faults, tracer=tracer)
    if injector.active:
        # Degraded-quorum evaluation rides along with fault injection
        # unless the caller already configured it explicitly.
        if not cfg.cluster.allow_degraded:
            cfg = replace(
                cfg, cluster=replace(cfg.cluster, allow_degraded=True)
            )
    with maybe_stage(tracer, "synthesis"):
        recording = FleetRecording.from_traces(
            deployment,
            synthesize_fleet_traces(
                deployment, ships, synth, seed=derive_rng(root, "synthesis")
            ),
        )
        if injector.plan.sensor_faults:
            # Faults act on the recorded counts detection reads, so the
            # caller's motes are never touched.
            recording = replace(
                recording,
                z=np.stack(
                    [
                        injector.corrupt_counts(
                            node.node_id,
                            z,
                            synth.t0,
                            recording.rate_hz,
                            node.mote.accelerometer.spec.max_counts,
                        )
                        for node, z in zip(deployment, recording.z)
                    ]
                ),
            )
    sink = Sink(tracer=tracer)
    channel = Channel(channel_config, seed=derive_rng(root, "channel"))
    network = SensorNetwork(
        positions=deployment.positions(),
        sink_id=deployment.sink_id,
        sink_position=deployment.sink_position,
        sink=sink,
        channel=injector.wrap_channel(channel),
        retransmit=injector.active,
        healing=healing,
        seed=derive_rng(root, "network"),
        tracer=tracer,
    )
    injector.install(network)
    if sanitizer is not None:
        # Recording mode (DESIGN.md §15): probe the event loop, track
        # the MAC/channel RNG streams, and audit the sink.  Per-node
        # instrumentation follows in the deployment loop, before any
        # node callbacks are scheduled.
        sanitizer.attach_network(network)
    window = cfg.detector.window_samples
    plan = _window_plan(recording, cfg.detector, faults, network.sim.now)
    # The fleet precompute assumes no baseline resets mid-run; a
    # healing-armed run can cold-restart detectors at reboot time, so
    # it feeds each node's preprocessed windows at event time instead.
    # The precompute's FleetDetector stays untraced: its alarms replay
    # through each SIDNode at event time, which is where they are
    # emitted (tracing both would double-count every alarm).
    outcomes: Optional[WindowOutcomes] = None
    if healing is None:
        with maybe_stage(tracer, "detection_precompute"):
            outcomes = _fleet_network_outcomes(
                deployment, recording, cfg.detector, plan
            )
    # Feed elision: a precomputed node's quiet windows can change only
    # its battery and a stale membership until one of them reaches the
    # deadline of a cluster the node heads, so each quiet run collapses
    # into one catch-up item (_outcome_feeds).  Batched billing commutes
    # with the radio's draws only while no battery can deplete, and
    # keeps each window's amount only under plans without battery
    # drains: crash/reboot-only plans are the ones it allows.
    elide = (
        outcomes is not None
        and not replace(injector.plan, node_crashes=()).active
        and _billing_order_free(
            deployment, outcomes, cfg.detector, injector.active
        )
    )
    window_s = cfg.detector.window_s
    # The last grid tick of any node: the full tick schedule runs the
    # clock at least that far.
    run_end = network.sim.now
    for i, node in enumerate(deployment):
        sid = SIDNode(
            node.node_id, node.anchor, cfg, row=node.row, column=node.column
        )
        proc = network.add_node(sid, battery=node.mote.battery)
        if sanitizer is not None:
            sanitizer.track_node(proc)
        # One feed train per node over the plan's live windows, each
        # fed at its end time (a dead window's feed would be a no-op).
        # Plan times reach events as Python floats, never np.float64.
        live = np.flatnonzero(plan.live[i])
        t_start = plan.t_start[i, live].tolist()
        t_end = plan.t_end[i, live].tolist()
        if outcomes is not None:
            feeds = _outcome_feeds(
                proc, window, outcomes[node.node_id], t_start, t_end, elide
            )
        else:
            row = preprocess_z_counts(
                recording.z[i], cfg.detector.rate_hz, cfg.detector.preprocess
            )
            starts = np.asarray(plan.starts)[live].tolist()
            feeds = _window_feeds(proc, row, starts, t_start, t_end, window)
        network.sim.schedule_train(feeds)
        if sanitizer is not None and proc.battery is not None:
            # Declared billing intent: each live window bills draw_cpu
            # seconds of CPU_S_PER_SAMPLE * window, so the per-window
            # joule amount replicates Battery.draw_cpu's op order
            # bit-exactly.
            sanitizer.expect_cpu_billing(
                node.node_id,
                live.size,
                (CPU_S_PER_SAMPLE * window) * proc.battery.costs.cpu_j_per_s,
            )
        # Cluster-evaluation ticks every window_s at the times the node
        # is up, queued only while it heads an open cluster; the grid
        # runs past the end of sampling so deadlines still fire after it.
        t0 = recording.t0s[i]
        horizon = (
            t0
            + recording.z.shape[1] / recording.rate_hz
            + 2 * cfg.cluster.collection_timeout_s
        )
        ticks = _tick_times(t0, window_s, horizon)
        if ticks.size:
            run_end = max(run_end, float(ticks[-1]))
        proc.schedule_ticks(ticks[_up(ticks, plan.outages[i])].tolist())

    # Periodic fleet-wide time-sync beacons (Sec. IV-C assumes the
    # network keeps "synchronized time ... within certain precision").
    # Crashed nodes and plan-suppressed nodes skip theirs, so their
    # clocks drift unbounded until a reboot or the next beacon heard.
    resyncs_performed = [0]
    sync_horizon = (
        synth.t0 + synth.duration_s + 2 * cfg.cluster.collection_timeout_s
    )

    def _resync(node: DeployedNode) -> None:
        proc = network.nodes.get(node.node_id)
        if proc is not None and not proc.alive:
            return
        if injector.sync_suppressed(node.node_id, network.sim.now):
            return
        node.mote.synchronize_clock(network.sim.now)
        resyncs_performed[0] += 1

    if resync_interval_s is not None:
        # One periodic per node, created in node order: at every beacon
        # time the fixed per-event seqs replay the old
        # outer-time/inner-node ordering exactly.
        for node in deployment:
            network.sim.schedule_periodic(
                resync_interval_s,
                _resync,
                node,
                first=synth.t0 + resync_interval_s,
                until=sync_horizon,
            )

    with maybe_stage(tracer, "event_loop") as span:
        network.sim.run()
        # Skipped ticks still end the run: episodes and blind windows
        # open at the end close at the time the full schedule ends.
        network.sim.run(until=run_end)
        if span is not None:
            span.set(**network.sim.stats())
    sink.flush()
    network.finalize_resilience()
    errors = [
        node.mote.clock.error_at(sync_horizon) for node in deployment
    ]
    clock_rms = (
        math.sqrt(sum(e * e for e in errors) / len(errors))
        if errors
        else 0.0
    )
    fault_stats: dict[str, float] = {}
    if injector.active or healing is not None:
        fault_stats = {**asdict(injector.stats), **asdict(network.resilience)}
    return NetworkScenarioResult(
        decisions=sink.decisions,
        mac_stats=asdict(network.mac.stats),
        lost_to_partition=network.lost_to_partition,
        sink_frames=network.sink_node.received_frames,
        fault_stats=fault_stats,
        degraded_decisions=sum(1 for d in sink.decisions if d.degraded),
        degraded_cluster_reports=sum(
            sum(1 for r in d.cluster_reports if r.degraded)
            for d in sink.decisions
        ),
        resyncs_performed=resyncs_performed[0],
        clock_rms_error_s=clock_rms,
        degradation_events=tuple(network.degradation_events),
    )


# ----------------------------------------------------------------------
# Duty-cycled runner (Sec. IV-A power management)
# ----------------------------------------------------------------------
@dataclass
class DutyCycledScenarioResult:
    """Outcome of a duty-cycled run."""

    reports_by_node: dict[int, list[NodeReport]]
    merged_by_node: dict[int, list[NodeReport]]
    controller: "DutyCycleController"
    first_alarm_time: Optional[float]
    truth_windows_by_node: dict[int, list[TimeWindow]]

    @property
    def n_reports(self) -> int:
        """Total window-level reports raised."""
        return sum(len(v) for v in self.reports_by_node.values())


def _dutycycled_reports(
    deployment: GridDeployment,
    recording: FleetRecording,
    det_cfg: NodeDetectorConfig,
    coarse_cfg: NodeDetectorConfig,
    decimation: int,
    controller: "DutyCycleController",
) -> tuple[dict[int, list[NodeReport]], Optional[float]]:
    """The duty-cycled window walk: one fleet step per window group.

    Window groups (one start index, shared by every node) run in time
    order.  Array masks pick each row's branch: baseline initialisation
    (both rates), full-rate detection during a wake-up (or with
    full-rate sentinels), coarse sentinel detection, or asleep.  After
    the step, alarms are replayed in node-id order, so the controller
    sees them exactly as a node-by-node walk would.

    An alarm wakes the fleet ``wakeup_latency_s`` after its onset,
    which is never before its window's start; the latency is positive,
    so no alarm can wake a row of its own group and every branch is
    known before the group steps.

    Every coarse segment is complete.  With decimation k write the
    full-rate window as ``W = q k + r`` (``0 <= r < k``).  The coarse
    window rounds a value within ``1 / (2 k)`` of ``W / k``, so it is at
    most ``q + 1``, and ``q + 1`` only if ``r >= 1``.  The coarse record
    holds ``ceil(N / k)`` samples, and the last start ``N - W`` maps to
    ``(N - W) // k``.  Writing ``N = a k + b`` (``0 <= b < k``), that is
    ``a - q`` when ``b >= r``, where ``r >= 1`` forces ``b >= 1``, and
    ``a - q - 1`` otherwise; either way the last segment, and so every
    earlier one, ends by ``ceil(N / k)``.
    """
    ids = [node.node_id for node in deployment]
    pre, t0s = _fleet_samples(recording, det_cfg)
    if len(set(t0s)) > 1:
        raise ConfigurationError(
            "duty-cycled detection needs one shared trace start time"
        )
    coarse_pre, _ = _fleet_samples(recording, coarse_cfg, decimation)
    window = det_cfg.window_samples
    coarse_window = coarse_cfg.window_samples
    fleet = FleetDetector.from_deployment(deployment, det_cfg)
    coarse_fleet = FleetDetector.from_deployment(deployment, coarse_cfg)
    n = len(ids)
    order = sorted(range(n), key=lambda i: ids[i])
    reports_by_node: dict[int, list[NodeReport]] = {nid: [] for nid in ids}
    first_alarm: Optional[float] = None
    for start in window_starts(det_cfg, pre.shape[1]):
        t0 = t0s[0] + start / det_cfg.rate_hz
        window_t0s = [t0] * n
        c_start = start // decimation
        c_seg = coarse_pre[:, c_start : c_start + coarse_window]
        # Initialization windows always run (they happen right after
        # deployment, before the duty cycle engages); both rates build
        # their baselines here.
        seeded = fleet.seeded
        init = ~seeded
        awake = controller.in_wakeup(t0)
        active = seeded & (awake | np.isin(ids, controller.sentinels_at(t0)))
        full_rate = awake or decimation == 1
        fine = active & full_rate
        # Sentinel mode: coarse detection at the reduced rate.
        coarse = active & (not full_rate)
        fine_reports: list[Optional[NodeReport]] = [None] * n
        if (init | fine).any():
            fine_reports = fleet.step(
                pre[:, start : start + window], window_t0s, active=init | fine
            )
        coarse_reports: list[Optional[NodeReport]] = [None] * n
        if (init | coarse).any():
            coarse_reports = coarse_fleet.step(
                c_seg, window_t0s, active=init | coarse
            )
        for i in order:
            report = (
                fine_reports[i]
                if fine[i]
                else coarse_reports[i]
                if coarse[i]
                else None
            )
            if report is not None:
                reports_by_node[ids[i]].append(report)
                controller.alarm(report.onset_time)
                if first_alarm is None:
                    first_alarm = report.onset_time
    return reports_by_node, first_alarm


def run_dutycycled_scenario(
    deployment: GridDeployment,
    ships: Sequence[ShipTrack] = (),
    detector_config: NodeDetectorConfig | None = None,
    duty_config: "DutyCycleConfig | None" = None,
    synthesis_config: SynthesisConfig | None = None,
    seed: RandomState = None,
    tracer: Optional[Tracer] = None,
) -> DutyCycledScenarioResult:
    """Run the Sec. IV-A sentinel/wake-up policy over one scenario.

    Nodes only evaluate detection windows while active; the first
    sentinel alarm wakes the whole fleet after the configured latency,
    so most nodes sleep through quiet water yet still catch the ship.
    Windows are processed in global time order so an alarm at t can
    wake other nodes for their windows after t.  The run stops at node
    alarms: it forms no cluster, so no travel line enters it (online
    heads, as in :func:`run_network_scenario`, always fit their own).

    ``tracer`` (optional) traces duty-cycle policy activity — fleet
    wake-ups — and records profiling spans; ``None`` (the default)
    adds nothing to the run.
    """
    from repro.detection.dutycycle import DutyCycleController

    synth = synthesis_config if synthesis_config is not None else SynthesisConfig()
    det_cfg = detector_config if detector_config is not None else NodeDetectorConfig()
    with maybe_stage(tracer, "synthesis"):
        recording = FleetRecording.from_traces(
            deployment,
            synthesize_fleet_traces(deployment, ships, synth, seed=seed),
        )
    controller = DutyCycleController(
        [n.node_id for n in deployment], duty_config, tracer=tracer
    )
    # Sentinels run a coarse (decimated) detection; the wake-up raises
    # the rate back to full (Sec. IV-A).  Coarse detection keeps its own
    # detector instances because the baseline statistics are
    # rate-specific.
    coarse_hz = controller.config.coarse_rate_hz
    decimation = (
        max(int(round(det_cfg.rate_hz / coarse_hz)), 1)
        if coarse_hz is not None
        else 1
    )
    coarse_cfg = (
        replace(det_cfg, rate_hz=det_cfg.rate_hz / decimation)
        if decimation > 1
        else det_cfg
    )
    with maybe_stage(tracer, "detection"):
        reports_by_node, first_alarm = _dutycycled_reports(
            deployment,
            recording,
            det_cfg,
            coarse_cfg,
            decimation,
            controller,
        )
    return DutyCycledScenarioResult(
        reports_by_node=reports_by_node,
        merged_by_node={
            nid: merge_reports(reports)
            for nid, reports in reports_by_node.items()
        },
        controller=controller,
        first_alarm_time=first_alarm,
        truth_windows_by_node=truth_windows_for(deployment, ships),
    )

"""The benchmark's workloads: seeded scenario cells, their output
checks, and the entry points the traced run wraps.

Importing this module imports ``repro``; it is the benchmark's first
set-up step.  A cell runs one paper scenario end to end and returns
its artefact; cells run back to back, one at a time, in a closed loop.

- ``paper_sweep``: Fig. 11 cells (``fig11_cell``) plus Table I/II cells
  (``run_correlation_table`` restricted to one M, seed and speed) on
  the 6x5 grid at 400 s.  The Fig. 11 cells of one group share a seed,
  so they synthesise identical traces.
- ``chaos_soak``: the clean, unhealed and healed chaos-soak runs of
  one seed (chokepoint node 8 crash-rebooting on a rolling schedule
  under three crossings); the only workload with network work.
- ``long_watch``: 300 s streaming watches of an 8x8 fleet with one
  ship; every cell has its own seed, so no cell shares inputs.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable

import numpy as np

from repro.analysis import experiments
from repro.detection import correlation, preprocess
from repro.detection.cluster import TemporaryClusterConfig
from repro.detection.fleet import FleetDetector
from repro.detection.node_detector import NodeDetector, NodeDetectorConfig
from repro.detection.sid import SIDNodeConfig
from repro.faults.plan import FaultPlan
from repro.network.selfheal import SelfHealingConfig
from repro.network.simulator import Simulator
from repro.physics import disturbance
from repro.physics.buoy import Buoy
from repro.physics.wake_train import WakeTrain
from repro.physics.wavefield import AmbientWaveField
from repro.scenario import runner, streaming, synthesis
from repro.scenario.digest import canonical_text, scenario_digest
from repro.scenario.presets import paper_deployment, paper_ship
from repro.sensors.accelerometer import Accelerometer
from repro.sensors.imote2 import IMote2

from spans import EntryPoint, SpanTracer

#: Seed of every warm-up cell.  Timed cell seeds are drawn from
#: ``[10_000, 2**31)``, so the warm-up never pre-fills a cache a timed
#: cell could hit.
WARMUP_SEED = 7
_SEED_RANGE = (10_000, 2**31)


class CheckError(Exception):
    """A cell's output broke one of its invariants."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def _sha(value: Any) -> str:
    return hashlib.sha256(canonical_text(value).encode("utf-8")).hexdigest()


def digest_offline(out: runner.OfflineScenarioResult) -> str:
    """Digest of an offline/streaming result's reports and fusion.

    ``canonical_text`` rejects the ``ClusterEvent`` enum, so events are
    projected to their names.
    """
    return _sha(
        {
            "reports_by_node": out.reports_by_node,
            "merged_by_node": out.merged_by_node,
            "cluster_outcomes": [
                (event.name, report) for event, report in out.cluster_outcomes
            ],
            "cluster_event": None
            if out.cluster_event is None
            else out.cluster_event.name,
            "cluster_report": out.cluster_report,
        }
    )


@dataclass(frozen=True)
class Cell:
    """One scenario: ``run()`` returns the artefact ``digest`` hashes."""

    key: str
    run: Callable[[], Any]
    digest: Callable[[Any], str]
    check: Callable[[Any], None]


# ----------------------------------------------------------------------
# paper_sweep
# ----------------------------------------------------------------------
FIG11_M = (1.0, 1.5, 2.0, 2.5, 3.0)
FIG11_AF = (0.4, 0.5, 0.6, 0.7, 0.8)
TABLE_M = (1.0, 2.0, 3.0)
SPEEDS_KNOTS = (10.0, 16.0)


#: Results of the ``run_offline_scenario`` calls the running paper cell
#: has made.  A paper artefact alone (two alarm counts, a 1x3 correlation
#: row that often saturates) would let changed reports pass unnoticed.
_offline_results: list[runner.OfflineScenarioResult] = []


def _keep_offline_result(*args: Any, **kwargs: Any) -> runner.OfflineScenarioResult:
    # Looked up at call time, so the traced run's wrapper is the one used.
    result = runner.run_offline_scenario(*args, **kwargs)
    _offline_results.append(result)
    return result


experiments.run_offline_scenario = _keep_offline_result

#: A paper cell's output: its artefact and the offline runs behind it.
PaperOut = tuple[Any, list[runner.OfflineScenarioResult]]


def _run_paper(fn: Callable[[], Any]) -> PaperOut:
    _offline_results.clear()
    artefact = fn()
    runs = _offline_results[:]
    _offline_results.clear()
    return artefact, runs


def _digest_paper(out: PaperOut) -> str:
    artefact, runs = out
    return _sha(
        {"artefact": artefact, "runs": [digest_offline(run) for run in runs]}
    )


def _check_fig11(out: PaperOut) -> None:
    (tp, fp), runs = out
    _require(len(runs) == 1, f"{len(runs)} offline runs, expected 1")
    _require(tp >= 0 and fp >= 0, f"negative alarm count {(tp, fp)}")
    _require(tp + fp >= 1, "two crossings raised no alarm")


def _check_table(out: PaperOut) -> None:
    matrix, runs = out
    _require(len(runs) == 1, f"{len(runs)} offline runs, expected 1")
    _require(len(matrix) == 1 and len(matrix[0]) == 3, f"matrix shape {matrix}")
    _require(
        all(math.isfinite(c) and 0.0 <= c <= 1.0 for c in matrix[0]),
        f"correlation outside [0, 1]: {matrix}",
    )


def fig11(m: float, af: float, seed: int) -> Cell:
    return Cell(
        key=f"fig11 m={m} af={af} seed={seed}",
        run=partial(_run_paper, partial(experiments.fig11_cell, m, af, seed)),
        digest=_digest_paper,
        check=_check_fig11,
    )


def table(with_ship: bool, m: float, seed: int, speed: float) -> Cell:
    label = f"table2 m={m} seed={seed} speed={speed}" if with_ship else (
        f"table1 m={m} seed={seed}"
    )
    return Cell(
        key=label,
        run=partial(
            _run_paper,
            partial(
                experiments.run_correlation_table,
                with_ship,
                (m,),
                seeds=(seed,),
                speeds_knots=(speed,),
            ),
        ),
        digest=_digest_paper,
        check=_check_table,
    )


def _paper_group(seed: int, rng: random.Random) -> list[Cell]:
    """Four Fig. 11 cells, one Table II cell and one Table I cell.

    The Fig. 11 cells share traces.  Two thirds of the cells being
    Fig. 11 cells keeps the median cell inside one cluster of cell
    times instead of on the gap between Fig. 11 and table cells.
    """
    cells = [
        fig11(m, rng.choice(FIG11_AF), seed)
        for m in sorted(rng.sample(FIG11_M, 4))
    ]
    cells.append(
        table(True, rng.choice(TABLE_M), seed, rng.choice(SPEEDS_KNOTS))
    )
    cells.append(table(False, rng.choice(TABLE_M), seed, SPEEDS_KNOTS[0]))
    return cells


# ----------------------------------------------------------------------
# chaos_soak (the configuration of benchmarks/test_bench_self_healing.py)
# ----------------------------------------------------------------------
CHOKEPOINT = 8
CRASH_CYCLES = 4
FIRST_CRASH_S = 70.0
CRASH_INTERVAL_S = 80.0
DOWNTIME_S = 70.0
CROSS_TIMES_S = (100.0, 200.0, 300.0)
CHAOS_MODES = ("clean", "unhealed", "healed")


def run_chaos(seed: int, mode: str) -> runner.NetworkScenarioResult:
    dep = paper_deployment(seed=seed)
    ships = [paper_ship(dep, cross_time_s=t) for t in CROSS_TIMES_S]
    faults = None
    if mode != "clean":
        faults = FaultPlan.rolling_crashes(
            [CHOKEPOINT] * CRASH_CYCLES,
            first_at_s=FIRST_CRASH_S,
            interval_s=CRASH_INTERVAL_S,
            downtime_s=DOWNTIME_S,
        )
    return runner.run_network_scenario(
        dep,
        ships,
        sid_config=SIDNodeConfig(
            detector=NodeDetectorConfig(m=2.0, af_threshold=0.4),
            cluster=TemporaryClusterConfig(min_rows=3),
        ),
        synthesis_config=synthesis.SynthesisConfig(duration_s=400.0),
        faults=faults,
        healing=SelfHealingConfig(persist_baseline=True)
        if mode == "healed"
        else None,
        seed=seed,
    )


def _check_chaos(mode: str, out: runner.NetworkScenarioResult) -> None:
    _require(
        out.sink_frames <= out.mac_stats["transmissions"],
        "sink received more frames than were sent",
    )
    _require(
        bool(out.fault_stats) == (mode != "clean"),
        f"fault counters do not match mode {mode}",
    )


def chaos(seed: int, mode: str) -> Cell:
    return Cell(
        key=f"chaos {mode} seed={seed}",
        run=partial(run_chaos, seed, mode),
        digest=scenario_digest,
        check=partial(_check_chaos, mode),
    )


def _chaos_group(seed: int, rng: random.Random) -> list[Cell]:
    return [chaos(seed, mode) for mode in CHAOS_MODES]


# ----------------------------------------------------------------------
# long_watch
# ----------------------------------------------------------------------
WATCH_DETECTOR = NodeDetectorConfig(
    m=2.0,
    af_threshold=0.4,
    preprocess=preprocess.PreprocessConfig(filter_kind="butter-causal"),
)


def run_watch(seed: int, speed: float) -> runner.OfflineScenarioResult:
    dep = paper_deployment(rows=8, columns=8, seed=seed)
    ship = paper_ship(dep, speed_knots=speed, cross_time_s=150.0, column_gap=3.5)
    return streaming.run_streaming_scenario(
        dep,
        [ship],
        detector_config=WATCH_DETECTOR,
        synthesis_config=synthesis.SynthesisConfig(duration_s=300.0),
        seed=seed,
    )


def _check_watch(out: runner.OfflineScenarioResult) -> None:
    _require(
        sum(len(r) for r in out.reports_by_node.values()) > 0,
        "a crossing raised no report",
    )


def watch(seed: int, speed: float) -> Cell:
    return Cell(
        key=f"watch seed={seed} speed={speed}",
        run=partial(run_watch, seed, speed),
        digest=digest_offline,
        check=_check_watch,
    )


def _watch_group(seed: int, rng: random.Random) -> list[Cell]:
    return [watch(seed, rng.choice(SPEEDS_KNOTS))]


# ----------------------------------------------------------------------
# Workload table
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Workload:
    """A closed loop over groups of cells; a group shares one seed."""

    name: str
    #: Nominal seconds per group on the fast host state; sets how many
    #: groups ``--seconds`` buys (never measured at run time).
    group_s: float
    group: Callable[[int, random.Random], list[Cell]]
    warmup: Callable[[], Cell]
    #: Span names the traced run must see at least once.
    expected_spans: tuple[str, ...]

    def cells(self, seed: int, seconds: float) -> list[Cell]:
        """The timed cell list; the same seed gives the same list."""
        rng = random.Random(f"{self.name}/{seed}")
        seeds: list[int] = []
        while len(seeds) < max(1, round(seconds / self.group_s)):
            s = rng.randrange(*_SEED_RANGE)
            if s not in seeds:
                seeds.append(s)
        return [cell for s in seeds for cell in self.group(s, rng)]


_SYNTHESIS_SPANS = (
    "AmbientWaveField.vertical_acceleration_batch",
    "WakeTrain.vertical_acceleration",
    "render_disturbances",
    "Buoy.specific_force",
    "FleetDetector.step",
)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "paper_sweep",
            group_s=3.4,
            group=_paper_group,
            warmup=partial(fig11, 2.0, 0.6, WARMUP_SEED),
            expected_spans=_SYNTHESIS_SPANS
            + (
                "cell",
                "run_offline_scenario",
                "synthesize_fleet_traces",
                "IMote2.record",
                "preprocess_z_counts_batch",
                "fuse_sequential_clusters",
                "cluster_correlation",
            ),
        ),
        Workload(
            "chaos_soak",
            group_s=2.5,
            group=_chaos_group,
            warmup=partial(chaos, WARMUP_SEED, "healed"),
            expected_spans=_SYNTHESIS_SPANS
            + (
                "cell",
                "run_network_scenario",
                "synthesize_fleet_traces",
                "IMote2.record",
                "preprocess_z_counts_batch",
                "preprocess_z_counts",
                "NodeDetector.process_window",
                "cluster_correlation",
                "Simulator.run",
            ),
        ),
        Workload(
            "long_watch",
            group_s=0.7,
            group=_watch_group,
            warmup=partial(watch, WARMUP_SEED, SPEEDS_KNOTS[0]),
            expected_spans=_SYNTHESIS_SPANS
            + (
                "cell",
                "run_streaming_scenario",
                "StreamingFleetSynthesizer.__init__",
                "StreamingFleetSynthesizer.next_chunk",
                "Accelerometer.read_axis_chunk",
                "StreamingPreprocessor.push",
                "fuse_sequential_clusters",
            ),
        ),
    )
}


# ----------------------------------------------------------------------
# Traced run: entry points, counters and the layer each span bills
# ----------------------------------------------------------------------
#: Span name -> per-layer metric its self time is billed to.
LAYER_OF = {
    "cell": "analysis.scoring_s",
    "run_offline_scenario": "scenario.runner_self_s",
    "run_network_scenario": "scenario.runner_self_s",
    "run_streaming_scenario": "scenario.runner_self_s",
    "synthesize_fleet_traces": "scenario.synthesis_self_s",
    "StreamingFleetSynthesizer.__init__": "scenario.synthesis_self_s",
    "StreamingFleetSynthesizer.next_chunk": "scenario.synthesis_self_s",
    "AmbientWaveField.vertical_acceleration_batch": "physics.ambient_s",
    "WakeTrain.vertical_acceleration": "physics.wake_s",
    "render_disturbances": "physics.disturbance_s",
    "Buoy.specific_force": "physics.buoy_s",
    "IMote2.record": "sensors.digitise_s",
    "Accelerometer.read_axis_chunk": "sensors.digitise_s",
    "preprocess_z_counts_batch": "detection.preprocess_s",
    "preprocess_z_counts": "detection.preprocess_s",
    "StreamingPreprocessor.push": "detection.preprocess_s",
    "FleetDetector.step": "detection.fleet_s",
    "NodeDetector.process_window": "detection.reference_s",
    "fuse_sequential_clusters": "detection.fusion_s",
    "cluster_correlation": "detection.fusion_s",
    "Simulator.run": "network.event_loop_s",
}

#: Counters a traced run reports (zero when the layer did no work).
COUNTERS = (
    "scenario.node_samples",
    "detection.fleet_node_windows",
    "detection.reference_windows",
    "detection.reports",
    "network.events",
    "network.peak_queue_depth",
    "network.mac_transmissions",
    "network.mac_retries",
    "network.mac_drops",
    "network.sink_frames",
    "network.reroutes",
    "network.hop_retransmits",
)


def entry_points() -> list[EntryPoint]:
    """Every traced callable, with the counters read off its result."""
    seen: set[str] = set()

    def note_synthesis(tr: SpanTracer, fingerprint: str) -> None:
        # Identical inputs synthesise identical samples.  Fingerprints
        # take every 10th sample (0.2 s apart) over the whole record:
        # two cells of one seed share ambient and sensor noise, so only
        # a wake or nuisance event, each lasting longer than that,
        # tells them apart.
        tr.add("synthesis.calls")
        if fingerprint in seen:
            tr.add("synthesis.repeats")
        seen.add(fingerprint)

    def after_fleet_synthesis(tr: SpanTracer, args, kwargs, traces) -> None:
        h = hashlib.sha256()
        for nid in sorted(traces):
            h.update(np.ascontiguousarray(traces[nid].z[::10]).tobytes())
            h.update(float(traces[nid].t0).hex().encode())
        tr.add("scenario.node_samples", sum(t.z.size for t in traces.values()))
        note_synthesis(tr, h.hexdigest())

    def after_chunk(tr: SpanTracer, args, kwargs, block) -> None:
        if block is None:
            return
        tr.add("scenario.node_samples", block.size)
        source = args[0]
        if source.n_samples - source.samples_remaining == block.shape[1]:
            # A stream is fingerprinted by its first chunk.
            note_synthesis(
                tr,
                hashlib.sha256(
                    np.ascontiguousarray(block[:, ::10]).tobytes()
                ).hexdigest(),
            )

    def after_step(tr: SpanTracer, args, kwargs, reports) -> None:
        active = kwargs.get("active", args[3] if len(args) > 3 else None)
        tr.add(
            "detection.fleet_node_windows",
            len(reports) if active is None else int(np.count_nonzero(active)),
        )
        tr.add("detection.reports", sum(r is not None for r in reports))

    def after_window(tr: SpanTracer, args, kwargs, report) -> None:
        tr.add("detection.reference_windows")
        if report is not None:
            tr.add("detection.reports")

    def after_loop(tr: SpanTracer, args, kwargs, executed) -> None:
        tr.add("network.events", executed)
        tr.peak("network.peak_queue_depth", args[0].stats()["peak_queue_depth"])

    def after_network(tr: SpanTracer, args, kwargs, out) -> None:
        tr.add("network.mac_transmissions", out.mac_stats["transmissions"])
        tr.add("network.mac_retries", out.mac_stats["retries"])
        tr.add("network.mac_drops", out.mac_stats["drops"])
        tr.add("network.sink_frames", out.sink_frames)
        tr.add("network.reroutes", out.fault_stats.get("reroutes", 0))
        tr.add("network.hop_retransmits", out.fault_stats.get("hop_retransmits", 0))

    return [
        EntryPoint(runner, "run_offline_scenario"),
        EntryPoint(runner, "run_network_scenario", after_network),
        EntryPoint(streaming, "run_streaming_scenario"),
        EntryPoint(synthesis, "synthesize_fleet_traces", after_fleet_synthesis),
        EntryPoint(streaming.StreamingFleetSynthesizer, "__init__"),
        EntryPoint(streaming.StreamingFleetSynthesizer, "next_chunk", after_chunk),
        EntryPoint(AmbientWaveField, "vertical_acceleration_batch"),
        EntryPoint(WakeTrain, "vertical_acceleration"),
        EntryPoint(disturbance, "render_disturbances"),
        EntryPoint(Buoy, "specific_force"),
        EntryPoint(IMote2, "record"),
        EntryPoint(Accelerometer, "read_axis_chunk"),
        EntryPoint(preprocess, "preprocess_z_counts_batch"),
        EntryPoint(preprocess, "preprocess_z_counts"),
        EntryPoint(preprocess.StreamingPreprocessor, "push"),
        EntryPoint(FleetDetector, "step", after_step),
        EntryPoint(NodeDetector, "process_window", after_window),
        EntryPoint(runner, "fuse_sequential_clusters"),
        EntryPoint(correlation, "cluster_correlation"),
        EntryPoint(Simulator, "run", after_loop),
    ]

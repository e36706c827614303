"""Chaos soak — self-healing vs frozen routing under rolling crashes.

The seed's routing tree is computed once and never repaired: crash the
chokepoint forwarder below the sink and every report from its subtree
dies silently.  The self-healing runtime (missed-ack evidence, ETX
re-parenting, hop-by-hop retransmission) is supposed to win those
frames back.  This bench makes the claim quantitative with a seeded
chaos plan: the node carrying the largest subtree (node 8 of the 6x5
paper grid — 18 of 30 nodes route through it) crash-reboots on a
rolling schedule while three ship crossings keep report traffic
flowing.  Per seed we run the same scenario three ways:

- ``clean``    — no faults: the delivery ceiling;
- ``unhealed`` — chaos plan, frozen seed routing;
- ``healed``   — chaos plan + ``SelfHealingConfig``.

The healed runs use ``persist_baseline=True`` (battery-backed eq. 5
state) so the delivery comparison isolates *routing* repair; the
cold-restart blind window is metered separately by the scenario tests.

Acceptance: aggregated over the seed set, healing recovers >= 80 % of
the frames the unhealed runs lost versus clean, and never costs
detections.  All runs are seeded, so the gate is bit-reproducible.

``$REPRO_CHAOS_SCALE=smoke`` shrinks the seed set for CI.
``$REPRO_CHAOS_TRACE=<path.jsonl>`` additionally streams a structured
telemetry trace of the first seed's healed run to that path (frame,
heal, fault, detection and profiling events); CI uploads it as an
artifact.  Tracing is equivalence-tested to leave results untouched.
"""

from __future__ import annotations

import os

from repro.analysis.tables import format_rows
from repro.detection.cluster import TemporaryClusterConfig
from repro.detection.node_detector import NodeDetectorConfig
from repro.detection.sid import SIDNodeConfig
from repro.faults.plan import FaultPlan
from repro.network.selfheal import SelfHealingConfig
from repro.parallel import SweepConfig, SweepRunner
from repro.sanitize import Sanitizer
from repro.scenario.presets import paper_deployment, paper_ship
from repro.scenario.runner import run_network_scenario
from repro.scenario.synthesis import SynthesisConfig
from repro.telemetry import JsonlSink, Tracer

#: The chokepoint forwarder: in the 6x5 paper grid the sink's ETX tree
#: hangs 18 of 30 nodes below node 8, while node 8 itself sits ~1.5
#: columns off the sailing line — so crashing it destroys transit, not
#: detection, and the loss is the kind routing repair can win back.
CHOKEPOINT = 8

#: Rolling crash/reboot schedule: down 70 s of every 80 s cycle, four
#: cycles, covering all three ship crossings.
CRASH_CYCLES = 4
FIRST_CRASH_S = 70.0
CRASH_INTERVAL_S = 80.0
DOWNTIME_S = 70.0

#: Report traffic: three crossings of the paper ship keep frames
#: flowing through the chokepoint for most of the 400 s scenario.
CROSS_TIMES_S = (100.0, 200.0, 300.0)
DURATION_S = 400.0

MODES = ("clean", "unhealed", "healed")

_FULL_SEEDS = (1, 2, 3, 4, 5, 6, 7, 8)
_SMOKE_SEEDS = (1, 3, 4)
SEEDS = (
    _SMOKE_SEEDS
    if os.environ.get("REPRO_CHAOS_SCALE", "").lower() == "smoke"
    else _FULL_SEEDS
)


def _chaos_plan() -> FaultPlan:
    return FaultPlan.rolling_crashes(
        [CHOKEPOINT] * CRASH_CYCLES,
        first_at_s=FIRST_CRASH_S,
        interval_s=CRASH_INTERVAL_S,
        downtime_s=DOWNTIME_S,
    )


def _tracer_for(seed: int, mode: str):
    """JSONL tracer for the representative healed run, if requested.

    ``$REPRO_CHAOS_TRACE`` names the output path; only the first
    seed's healed run is traced so the artifact stays one scenario's
    story.  Constructed here (not at module scope) so sweep workers
    open the sink in whichever process runs the cell.
    """
    path = os.environ.get("REPRO_CHAOS_TRACE")
    if not path or mode != "healed" or seed != SEEDS[0]:
        return None
    return Tracer([JsonlSink(path)])


def _sanitizer_for(seed: int, mode: str):
    """Sanitizer for the representative healed run, if requested.

    ``$REPRO_SANITIZE_REPORT`` names the report artifact path; only
    the first seed's healed run is sanitized — it exercises crashes,
    reboots, batched catch-up billing and re-routing, the exact
    surfaces the detectors audit.  Constructed (and its report
    written) inside ``_run_one`` so it lives entirely in whichever
    sweep-worker process runs the cell.
    """
    path = os.environ.get("REPRO_SANITIZE_REPORT")
    if not path or mode != "healed" or seed != SEEDS[0]:
        return None, None
    return Sanitizer(), path


def _run_one(seed: int, mode: str):
    dep = paper_deployment(seed=seed)
    ships = [paper_ship(dep, cross_time_s=t) for t in CROSS_TIMES_S]
    faults = None if mode == "clean" else _chaos_plan()
    healing = (
        SelfHealingConfig(persist_baseline=True)
        if mode == "healed"
        else None
    )
    tracer = _tracer_for(seed, mode)
    sanitizer, report_path = _sanitizer_for(seed, mode)
    try:
        result = run_network_scenario(
            dep,
            ships,
            sid_config=SIDNodeConfig(
                detector=NodeDetectorConfig(m=2.0, af_threshold=0.4),
                cluster=TemporaryClusterConfig(min_rows=3),
            ),
            synthesis_config=SynthesisConfig(duration_s=DURATION_S),
            faults=faults,
            healing=healing,
            seed=seed,
            tracer=tracer,
            sanitizer=sanitizer,
        )
    finally:
        if tracer is not None:
            tracer.close()
    if sanitizer is not None:
        report = sanitizer.report()
        report.write_json(report_path)
        assert report.ok, (
            "sanitizer findings in the chaos soak run:\n" + report.format()
        )
    return result


def _run_soak():
    runner = SweepRunner(SweepConfig.from_env())
    cells = [
        {"seed": seed, "mode": mode} for seed in SEEDS for mode in MODES
    ]
    outcomes = dict(
        zip(
            ((c["seed"], c["mode"]) for c in cells),
            runner.map(_run_one, cells),
        )
    )
    records = []
    for seed in SEEDS:
        clean = outcomes[(seed, "clean")]
        unhealed = outcomes[(seed, "unhealed")]
        healed = outcomes[(seed, "healed")]
        fs = healed.fault_stats
        records.append(
            {
                "seed": seed,
                "clean": clean.sink_frames,
                "unhealed": unhealed.sink_frames,
                "healed": healed.sink_frames,
                "lost_unhealed": clean.sink_frames - unhealed.sink_frames,
                "lost_healed": clean.sink_frames - healed.sink_frames,
                "reroutes": int(fs["reroutes"]),
                "hop_rtx": int(fs["hop_retransmits"]),
                "orphan_events": len(unhealed.degradation_events),
                "dec_unhealed": len(unhealed.decisions),
                "dec_healed": len(healed.decisions),
                "det_unhealed": int(unhealed.intrusion_detected),
                "det_healed": int(healed.intrusion_detected),
            }
        )
    return records


def test_bench_self_healing(once):
    records = once(_run_soak)

    print()
    print(
        format_rows(
            records,
            columns=[
                "seed",
                "clean",
                "unhealed",
                "healed",
                "lost_unhealed",
                "lost_healed",
                "reroutes",
                "hop_rtx",
                "orphan_events",
                "det_unhealed",
                "det_healed",
            ],
            title="Chaos soak: delivery/detection, healed vs unhealed",
            col_width=13,
        )
    )

    lost_unhealed = sum(r["lost_unhealed"] for r in records)
    lost_healed = sum(r["lost_healed"] for r in records)

    # The chaos plan bites: frozen routing loses real frames, and the
    # orphaned subtree is reported as structured degradation events.
    assert lost_unhealed > 0
    assert sum(r["orphan_events"] for r in records) > 0

    # The runtime actually repaired routes (not a no-op pass-through).
    assert sum(r["reroutes"] for r in records) > 0

    # Headline criterion: healing recovers >= 80 % of the frames the
    # unhealed runs lost versus the clean ceiling, aggregated over the
    # seed set (per-seed traffic is too sparse to be meaningful alone).
    recovery = (lost_unhealed - lost_healed) / lost_unhealed
    print(
        f"recovery: {lost_unhealed - lost_healed}/{lost_unhealed} "
        f"= {recovery:.2f}"
    )
    assert recovery >= 0.8

    # Healing never costs detections.
    assert sum(r["dec_healed"] for r in records) >= sum(
        r["dec_unhealed"] for r in records
    )
    assert sum(r["det_healed"] for r in records) >= sum(
        r["det_unhealed"] for r in records
    )

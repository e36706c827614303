"""Fleet synthesis throughput — batched vs per-node ambient evaluation.

The batched path turns each node into weights on fleet-shared
``cos(w t)`` / ``sin(w t)`` terms via the angle-sum identity, and sums
them by block angle addition: trig only at block starts and in-block
offsets, then two BLAS contractions.  On the 64-node / 400 s workload
the ambient kernel must be at least 3x faster than evaluating the
per-position formula node by node (the test oracle
:func:`tests.physics.oracles.vertical_acceleration`; measured ~70x) and
at least 2x faster than the shared-trig GEMM with full trig matrices
(the test oracle :func:`tests.physics.oracles.shared_trig_ambient`;
measured ~2.7x), and the end-to-end fleet path's z counts must stay
bit-identical to per-node synthesis through the per-position formulas
(:func:`tests.physics.oracles.per_position_ambient`).
"""

from __future__ import annotations

import time

import numpy as np

from repro.constants import SAMPLE_RATE_HZ
from repro.physics.spectrum import SeaState, sea_state_spectrum
from repro.physics.wavefield import AmbientWaveField
from repro.scenario.deployment import GridDeployment
from repro.scenario.synthesis import (
    SynthesisConfig,
    fleet_ambient_field,
    synthesize_fleet_traces,
    synthesize_node_trace,
)
from tests.physics import oracles

ROWS = COLUMNS = 8
DURATION_S = 400.0
SEED = 13
DEPLOYMENT_SEED = 7


def _batched():
    dep = GridDeployment(ROWS, COLUMNS, spacing_m=25.0, seed=DEPLOYMENT_SEED)
    cfg = SynthesisConfig(duration_s=DURATION_S)
    return synthesize_fleet_traces(dep, config=cfg, seed=SEED)


def _per_node(mp):
    """Node-by-node synthesis with the per-position formulas patched in."""
    dep = GridDeployment(ROWS, COLUMNS, spacing_m=25.0, seed=DEPLOYMENT_SEED)
    cfg = SynthesisConfig(duration_s=DURATION_S)
    field = fleet_ambient_field(cfg, SEED)
    oracles.per_position_ambient(mp)
    return {
        node.node_id: synthesize_node_trace(node, field, config=cfg)
        for node in dep
    }


def _best_of(fn, rounds: int = 3) -> float:
    times = []
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


def test_bench_fleet_synthesis(once, monkeypatch):
    fleet = once(_batched)

    # Bit-identical z counts on every node; neither path asked for the
    # horizontal axes, so neither recorded them.
    with monkeypatch.context() as mp:
        reference = _per_node(mp)
    assert len(fleet) == ROWS * COLUMNS
    assert all(
        np.array_equal(fleet[nid].z, reference[nid].z)
        and fleet[nid].x is None
        and fleet[nid].y is None
        and reference[nid].x is None
        and reference[nid].y is None
        for nid in reference
    )

    # Kernel-level speedup on the same workload: the batch against the
    # per-position loop and against the full-matrix shared-trig oracle,
    # over the identical ambient field.
    field = AmbientWaveField(
        sea_state_spectrum(SeaState.CALM), n_components=96, seed=1
    )
    positions = [node.anchor for node in iter(_grid())]
    t = np.arange(0.0, DURATION_S, 1.0 / SAMPLE_RATE_HZ)
    t_batched = _best_of(
        lambda: field.vertical_acceleration_batch(positions, t)
    )
    t_loop = _best_of(
        lambda: [oracles.vertical_acceleration(field, p, t) for p in positions]
    )
    with monkeypatch.context() as mp:
        oracles.shared_trig_ambient(mp)
        t_shared_trig = _best_of(
            lambda: field.vertical_acceleration_batch(positions, t)
        )
    speedup = t_loop / t_batched
    over_oracle = t_shared_trig / t_batched
    print()
    print(
        f"ambient kernel ({len(positions)} nodes, {DURATION_S:.0f} s): "
        f"batched {t_batched * 1e3:.0f} ms, per-node "
        f"{t_loop * 1e3:.0f} ms, speedup {speedup:.1f}x; shared-trig "
        f"oracle {t_shared_trig * 1e3:.0f} ms, speedup {over_oracle:.1f}x"
    )
    assert speedup >= 3.0
    assert over_oracle >= 2.0


def _grid() -> GridDeployment:
    return GridDeployment(
        ROWS, COLUMNS, spacing_m=25.0, seed=DEPLOYMENT_SEED
    )

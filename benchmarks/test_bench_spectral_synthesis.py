"""Spectral vs time-domain ambient synthesis on the flagship fleet.

The spectral engine snaps the realised components onto an oversampled
FFT grid and contracts the whole fleet with one batched inverse real
FFT; on the 64-node / 400 s workload the ambient kernel must be at
least 5x faster than the shared-trig GEMM over the same snapped field
(full trig matrices, the test oracle
:func:`tests.physics.oracles.shared_trig_ambient`; measured ~6x, the
floor leaves room for FFT/BLAS and machine variance).  Against the
production time-domain engine (block angle addition) the ratio is
printed, not gated.  The end-to-end spectral fleet path must digitise
counts bit-identical to the snapped spectral reference: the same
snapped field through the time-domain engine, which the test oracle
:func:`tests.scenario.oracles.timedomain_ambient` forces.
"""

from __future__ import annotations

import time

import numpy as np

from repro.constants import SAMPLE_RATE_HZ
from repro.physics.spectrum import SeaState, sea_state_spectrum
from repro.physics.wavefield import AmbientWaveField, SpectralGrid
from repro.scenario.deployment import GridDeployment
from repro.scenario.synthesis import SynthesisConfig, synthesize_fleet_traces
from tests.physics.oracles import shared_trig_ambient
from tests.scenario.oracles import timedomain_ambient

ROWS = COLUMNS = 8
DURATION_S = 400.0
SEED = 13
DEPLOYMENT_SEED = 7


def _grid() -> GridDeployment:
    return GridDeployment(ROWS, COLUMNS, spacing_m=25.0, seed=DEPLOYMENT_SEED)


def _fleet():
    cfg = SynthesisConfig(duration_s=DURATION_S, synthesis_method="spectral")
    return synthesize_fleet_traces(_grid(), config=cfg, seed=SEED)


def _best_of(fn, rounds: int = 5) -> float:
    fn()  # warm caches/pools outside the clock
    times = []
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


def test_bench_spectral_synthesis(once, monkeypatch):
    fleet = once(_fleet)

    # Bit-identical digitised counts against the snapped time-domain
    # reference on every axis of every node.
    with monkeypatch.context() as mp:
        timedomain_ambient(mp)
        reference = _fleet()
    assert len(fleet) == ROWS * COLUMNS
    assert all(
        np.array_equal(fleet[nid].z, reference[nid].z)
        and np.array_equal(fleet[nid].x, reference[nid].x)
        and np.array_equal(fleet[nid].y, reference[nid].y)
        for nid in reference
    )

    # Kernel-level speedup: both engines evaluating the identical
    # grid-snapped ambient field on the identical fleet workload.
    t = np.arange(0.0, DURATION_S, 1.0 / SAMPLE_RATE_HZ)
    field = AmbientWaveField(
        sea_state_spectrum(SeaState.CALM),
        n_components=96,
        seed=1,
        spectral_grid=SpectralGrid(n_samples=t.size, dt_s=float(t[1] - t[0])),
    )
    positions = [node.anchor for node in _grid()]
    t_spectral = _best_of(
        lambda: field.vertical_acceleration_batch(
            positions, t, method="spectral"
        )
    )
    t_timedomain = _best_of(
        lambda: field.vertical_acceleration_batch(positions, t)
    )
    with monkeypatch.context() as mp:
        shared_trig_ambient(mp)
        t_shared_trig = _best_of(
            lambda: field.vertical_acceleration_batch(positions, t)
        )
    speedup = t_shared_trig / t_spectral
    print()
    print(
        f"ambient kernel ({len(positions)} nodes, {DURATION_S:.0f} s): "
        f"spectral {t_spectral * 1e3:.0f} ms, shared-trig oracle "
        f"{t_shared_trig * 1e3:.0f} ms, speedup {speedup:.1f}x; "
        f"production timedomain {t_timedomain * 1e3:.0f} ms, "
        f"speedup {t_timedomain / t_spectral:.1f}x"
    )
    assert speedup >= 5.0

"""Digitised counts must not depend on how the synthesis evaluates trig.

The synthesis sums the ambient batch, the buoy's tilt and drift by block
angle addition and evaluates wake packets on their support only.  With
:func:`tests.physics.oracles.reference_synthesis` patched in, every term
takes trig at every sample instead; the two differ by <= ~5e-13 m/s^2,
ten orders of magnitude under one count, so the counts must be equal.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.experiments import _heavy_nuisances
from repro.scenario.presets import paper_deployment, paper_ship
from repro.scenario.streaming import StreamingFleetSynthesizer
from repro.scenario.synthesis import SynthesisConfig, synthesize_fleet_traces
from tests.physics.oracles import reference_synthesis

SEEDS = range(10)


def _fig11_traces(seed: int, include_horizontal: bool):
    """The Fig. 11 cell's synthesis: two crossings plus heavy nuisances."""
    dep = paper_deployment(seed=seed)
    ships = [
        paper_ship(dep, cross_time_s=140.0),
        paper_ship(dep, alpha_deg=110.0, cross_time_s=280.0, column_gap=2.5),
    ]
    synth = SynthesisConfig(
        duration_s=400.0, include_horizontal=include_horizontal
    )
    return synthesize_fleet_traces(
        dep,
        ships,
        config=synth,
        disturbances_by_node=_heavy_nuisances(dep, synth, seed=seed + 7919),
        seed=seed * 100,
    )


def _watch_counts(seed: int) -> np.ndarray:
    """An 8x8 streaming watch: 300 s of z counts in 1000-sample chunks."""
    dep = paper_deployment(rows=8, columns=8, seed=seed)
    ship = paper_ship(dep, cross_time_s=150.0, column_gap=3.5)
    source = StreamingFleetSynthesizer(
        dep, [ship], config=SynthesisConfig(duration_s=300.0), seed=seed
    )
    return np.concatenate(list(source.chunks(1000)), axis=1)


@pytest.mark.parametrize("seed", SEEDS)
def test_fleet_counts_equal_reference(seed, monkeypatch):
    horizontal = seed % 2 == 1
    got = _fig11_traces(seed, horizontal)
    with monkeypatch.context() as mp:
        reference_synthesis(mp)
        want = _fig11_traces(seed, horizontal)
    assert sorted(got) == sorted(want)
    for nid, ref in want.items():
        assert np.array_equal(got[nid].z, ref.z)
        if horizontal:
            assert np.array_equal(got[nid].x, ref.x)
            assert np.array_equal(got[nid].y, ref.y)
        else:
            axes = (got[nid].x, got[nid].y, ref.x, ref.y)
            assert all(axis is None for axis in axes)


@pytest.mark.parametrize("seed", SEEDS)
def test_streaming_counts_equal_reference(seed, monkeypatch):
    got = _watch_counts(seed)
    with monkeypatch.context() as mp:
        reference_synthesis(mp)
        want = _watch_counts(seed)
    assert got.shape == (64, 15_000)
    assert np.array_equal(got, want)

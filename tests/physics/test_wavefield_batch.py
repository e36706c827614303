"""Batched fleet synthesis must equal the per-position formulas.

The batched path rewrites ``cos(a - w t)`` through the angle-sum
identity into per-node weights on shared ``cos(w t)`` / ``sin(w t)``
terms, and sums those on the sample grid by block angle addition
(:func:`repro.physics.sinusoids.grid_sinusoid_sum`): trig only at
block starts and in-block offsets.  The only admissible difference
from per-node evaluation is floating-point rounding of those
identities, orders of magnitude below any physical scale in the
simulation.  The per-position formulas are the test oracles in
:mod:`tests.physics.oracles`.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.physics.spectrum import PiersonMoskowitzSpectrum, SeaState
from repro.physics.wavefield import AmbientWaveField
from repro.scenario.deployment import GridDeployment
from repro.scenario.synthesis import (
    SynthesisConfig,
    fleet_ambient_field,
    synthesize_fleet_traces,
    synthesize_node_trace,
)
from repro.types import Position
from tests.physics import oracles


def _grid_positions(nx: int, ny: int, spacing: float) -> list[Position]:
    return [
        Position(i * spacing, j * spacing)
        for i in range(nx)
        for j in range(ny)
    ]


@pytest.mark.parametrize("seed", [1, 17, 202])
@pytest.mark.parametrize(
    "sea_state", [SeaState.CALM, SeaState.MODERATE]
)
def test_elevation_batch_matches_per_position(seed, sea_state):
    spectrum = PiersonMoskowitzSpectrum(sea_state.wind_speed_mps)
    field = AmbientWaveField(spectrum, n_components=48, seed=seed)
    positions = _grid_positions(3, 4, 25.0)
    t = np.arange(0.0, 30.0, 0.02)
    batch = field.elevation_batch(positions, t)
    assert batch.shape == (len(positions), t.size)
    scale = max(np.abs(batch).max(), 1e-12)
    for i, pos in enumerate(positions):
        single = oracles.elevation(field, pos, t)
        assert np.allclose(batch[i], single, rtol=0.0, atol=1e-10 * scale)


@pytest.mark.parametrize("seed", [2, 33])
def test_vertical_acceleration_batch_matches_per_position(seed):
    spectrum = PiersonMoskowitzSpectrum(SeaState.CALM.wind_speed_mps)
    field = AmbientWaveField(spectrum, n_components=64, seed=seed)
    positions = _grid_positions(2, 5, 10.0)
    t = np.arange(0.0, 20.0, 0.02)
    batch = field.vertical_acceleration_batch(positions, t)
    scale = max(np.abs(batch).max(), 1e-12)
    for i, pos in enumerate(positions):
        single = oracles.vertical_acceleration(field, pos, t)
        assert np.allclose(batch[i], single, rtol=0.0, atol=1e-10 * scale)


def test_vertical_batch_with_shared_response(small_field):
    positions = _grid_positions(2, 2, 25.0)
    t = np.arange(0.0, 10.0, 0.02)

    def response(freqs):
        return 1.0 / (1.0 + np.asarray(freqs) ** 2)

    batch = small_field.vertical_acceleration_batch(
        positions, t, responses=response
    )
    scale = max(np.abs(batch).max(), 1e-12)
    for i, pos in enumerate(positions):
        single = oracles.vertical_acceleration(
            small_field, pos, t, response=response
        )
        assert np.allclose(batch[i], single, rtol=0.0, atol=1e-10 * scale)


def test_vertical_batch_with_per_position_responses(small_field):
    positions = _grid_positions(1, 3, 25.0)
    t = np.arange(0.0, 10.0, 0.02)
    responses = [
        lambda f: np.ones_like(np.asarray(f, dtype=float)),
        None,
        lambda f: 1.0 / (1.0 + np.asarray(f, dtype=float)),
    ]
    batch = small_field.vertical_acceleration_batch(
        positions, t, responses=responses
    )
    scale = max(np.abs(batch).max(), 1e-12)
    for i, (pos, resp) in enumerate(zip(positions, responses)):
        single = oracles.vertical_acceleration(small_field, pos, t, resp)
        assert np.allclose(batch[i], single, rtol=0.0, atol=1e-10 * scale)


def test_vertical_batch_rejects_mismatched_responses(small_field):
    positions = _grid_positions(2, 2, 25.0)
    with pytest.raises(ConfigurationError):
        small_field.vertical_acceleration_batch(
            positions, np.arange(0.0, 1.0, 0.02), responses=[None]
        )


def test_horizontal_batch_matches_per_position(small_field):
    positions = _grid_positions(2, 3, 40.0)
    t = np.arange(0.0, 15.0, 0.02)
    ax_b, ay_b = small_field.horizontal_acceleration_batch(positions, t)
    scale = max(np.abs(ax_b).max(), np.abs(ay_b).max(), 1e-12)
    for i, pos in enumerate(positions):
        ax, ay = oracles.horizontal_acceleration(small_field, pos, t)
        assert np.allclose(ax_b[i], ax, rtol=0.0, atol=1e-10 * scale)
        assert np.allclose(ay_b[i], ay, rtol=0.0, atol=1e-10 * scale)


def test_single_position_batch(small_field, origin):
    t = np.arange(0.0, 5.0, 0.02)
    batch = small_field.vertical_acceleration_batch([origin], t)
    assert batch.shape == (1, t.size)
    single = oracles.vertical_acceleration(small_field, origin, t)
    scale = max(np.abs(single).max(), 1e-12)
    assert np.allclose(batch[0], single, rtol=0.0, atol=1e-10 * scale)


def test_fleet_traces_match_per_node_reference(monkeypatch):
    """End-to-end: the batched fleet path reproduces per-node synthesis.

    Two identical deployments (same seed) are synthesised, one through
    ``synthesize_fleet_traces`` (batched) and one node-by-node against
    the same derived ambient field with the per-position formulas
    patched in; the digitised raw counts must agree exactly — the
    angle-addition rounding sits ~10 orders of magnitude below one
    accelerometer count.
    """
    seed = 5
    cfg = SynthesisConfig(duration_s=40.0, include_horizontal=True)
    dep_a = GridDeployment(2, 2, spacing_m=25.0, seed=21)
    dep_b = GridDeployment(2, 2, spacing_m=25.0, seed=21)

    fleet = synthesize_fleet_traces(dep_a, config=cfg, seed=seed)

    field = fleet_ambient_field(cfg, seed)
    oracles.per_position_ambient(monkeypatch)
    for node in dep_b:
        ref = synthesize_node_trace(node, field, config=cfg)
        got = fleet[node.node_id]
        assert np.array_equal(got.z, ref.z)
        assert np.array_equal(got.x, ref.x)
        assert np.array_equal(got.y, ref.y)

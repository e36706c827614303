"""`synthesis_method` selection on the fleet synthesis path.

``"spectral"`` must digitise raw counts bit-identical to the snapped
spectral reference — the same grid-snapped ambient field evaluated by
the time-domain engine (:func:`tests.scenario.oracles.timedomain_ambient`);
fleet synthesis requires one shared fleet sample grid and rejects
ragged deployments under either method.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.physics.disturbance import FishBump, WindGust
from repro.scenario.deployment import GridDeployment
from repro.scenario.presets import paper_ship
from repro.scenario.synthesis import (
    SYNTHESIS_METHODS,
    SynthesisConfig,
    build_ambient_field,
    fleet_spectral_grid,
    synthesize_fleet_traces,
)
from repro.sensors.sampler import Sampler
from tests.scenario.oracles import timedomain_ambient

SEED = 7


def _deployment(rows: int = 3, columns: int = 3) -> GridDeployment:
    return GridDeployment(rows, columns, spacing_m=25.0, seed=11)


def _disturbances(dep: GridDeployment) -> dict:
    return {
        dep.node(0).node_id: [
            WindGust(start=10.0, duration=5.0, rms_accel=0.4, seed=3)
        ],
        dep.node(3).node_id: [FishBump(time=30.0, peak_accel=1.5)],
    }


def _spectral_reference(monkeypatch, **cfg_kwargs):
    with monkeypatch.context() as mp:
        timedomain_ambient(mp)
        return _synthesize("spectral", **cfg_kwargs)


def _synthesize(method: str, **cfg_kwargs):
    dep = _deployment()
    cfg = SynthesisConfig(
        duration_s=60.0, synthesis_method=method, **cfg_kwargs
    )
    return synthesize_fleet_traces(
        dep,
        [paper_ship(dep)],
        cfg,
        disturbances_by_node=_disturbances(dep),
        seed=SEED,
    )


class TestCountEquivalence:
    def test_spectral_matches_reference_bit_for_bit(self, monkeypatch):
        spectral = _synthesize("spectral")
        reference = _spectral_reference(monkeypatch)
        assert spectral.keys() == reference.keys()
        for nid in reference:
            assert np.array_equal(spectral[nid].z, reference[nid].z)
            assert np.array_equal(spectral[nid].x, reference[nid].x)
            assert np.array_equal(spectral[nid].y, reference[nid].y)

    def test_with_horizontal_axes(self, monkeypatch):
        spectral = _synthesize("spectral", include_horizontal=True)
        reference = _spectral_reference(monkeypatch, include_horizontal=True)
        for nid in reference:
            assert np.array_equal(spectral[nid].z, reference[nid].z)
            assert np.array_equal(spectral[nid].x, reference[nid].x)
            assert np.array_equal(spectral[nid].y, reference[nid].y)

    def test_reference_fixture_evaluates_in_time_domain(self, monkeypatch):
        # The oracle must really swap the engine: under the patch a
        # spectral evaluation returns the time-domain floats exactly.
        cfg = SynthesisConfig(duration_s=60.0, synthesis_method="spectral")
        t = np.arange(3000) / 50.0
        field = build_ambient_field(
            cfg, seed=SEED, spectral_grid=fleet_spectral_grid(cfg, t)
        )
        positions = [node.anchor for node in _deployment()]

        def evaluate(method):
            vertical = field.vertical_acceleration_batch(
                positions, t, method=method
            )
            horizontal = field.horizontal_acceleration_batch(
                positions, t, method=method
            )
            return [vertical, *horizontal]

        timedomain = evaluate("timedomain")
        assert not all(
            np.array_equal(a, b)
            for a, b in zip(evaluate("spectral"), timedomain)
        )
        timedomain_ambient(monkeypatch)
        for a, b in zip(evaluate("spectral"), timedomain):
            assert np.array_equal(a, b)

    def test_spectral_deterministic(self):
        a = _synthesize("spectral")
        b = _synthesize("spectral")
        for nid in a:
            assert np.array_equal(a[nid].z, b[nid].z)

    def test_snapping_perturbs_timedomain_realisation_only_slightly(self):
        # Snapping moves each component by <= grid_df/2, so the snapped
        # realisation is statistically indistinguishable but not
        # bit-identical to the historical unsnapped one.
        snapped = _synthesize("spectral")
        plain = _synthesize("timedomain")
        nid = next(iter(plain))
        assert not np.array_equal(snapped[nid].z, plain[nid].z)
        # Same resting point (~1 g) and comparable excursion scale.
        assert abs(
            float(np.mean(snapped[nid].z)) - float(np.mean(plain[nid].z))
        ) < 2.0
        assert 0.5 < float(
            np.std(snapped[nid].z) / max(np.std(plain[nid].z), 1e-9)
        ) < 2.0


class TestFleetPath:
    def test_single_node_uses_fleet_path(self, monkeypatch):
        # A one-node deployment shares its (trivial) fleet grid, so
        # method selection must apply there too instead of falling back
        # to the per-node path.
        cfg = SynthesisConfig(duration_s=30.0, synthesis_method="spectral")
        dep = GridDeployment(1, 1, spacing_m=25.0, seed=3)
        spectral = synthesize_fleet_traces(dep, config=cfg, seed=SEED)
        dep2 = GridDeployment(1, 1, spacing_m=25.0, seed=3)
        with monkeypatch.context() as mp:
            timedomain_ambient(mp)
            reference = synthesize_fleet_traces(dep2, config=cfg, seed=SEED)
        (za,) = [t.z for t in spectral.values()]
        (zb,) = [t.z for t in reference.values()]
        assert np.array_equal(za, zb)

    @pytest.mark.parametrize("method", SYNTHESIS_METHODS)
    def test_ragged_grids_rejected(self, method):
        dep = _deployment(2, 2)
        dep.node(0).mote.sampler = Sampler(rate_hz=25.0)
        cfg = SynthesisConfig(duration_s=20.0, synthesis_method=method)
        with pytest.raises(ConfigurationError, match="shared fleet sample grid"):
            synthesize_fleet_traces(dep, config=cfg, seed=SEED)
        # Rejected before any mote records: no battery was billed.
        for node in dep:
            battery = node.mote.battery
            assert battery.remaining_j == battery.capacity_j


class TestConfig:
    def test_methods_registry(self):
        assert SYNTHESIS_METHODS == ("timedomain", "spectral")

    @pytest.mark.parametrize("method", SYNTHESIS_METHODS)
    def test_valid_methods_accepted(self, method):
        cfg = SynthesisConfig(synthesis_method=method)
        assert cfg.snaps_frequencies == (method != "timedomain")

    def test_unknown_method_rejected(self):
        with pytest.raises(ConfigurationError, match="synthesis_method"):
            SynthesisConfig(synthesis_method="fft")

    def test_bad_oversample_rejected(self):
        with pytest.raises(ConfigurationError, match="oversample"):
            SynthesisConfig(spectral_oversample=0)

"""Tests for the random-phase ambient wave field."""

from __future__ import annotations

import numpy as np
import pytest

from repro.constants import GRAVITY
from repro.errors import ConfigurationError
from repro.physics.spectrum import PiersonMoskowitzSpectrum, SeaState
from repro.physics.wavefield import AmbientWaveField, _spreading_cdf_table
from repro.types import Position


@pytest.fixture
def field(calm_spectrum):
    return AmbientWaveField(calm_spectrum, n_components=48, seed=3)


def _elevation(field, position, t):
    return field.elevation_batch([position], t)[0]


def test_same_seed_same_field(calm_spectrum, origin):
    t = np.linspace(0, 20, 500)
    a = AmbientWaveField(calm_spectrum, n_components=16, seed=5)
    b = AmbientWaveField(calm_spectrum, n_components=16, seed=5)
    assert np.array_equal(_elevation(a, origin, t), _elevation(b, origin, t))


def test_different_seeds_differ(calm_spectrum, origin):
    t = np.linspace(0, 20, 500)
    a = AmbientWaveField(calm_spectrum, n_components=16, seed=5)
    b = AmbientWaveField(calm_spectrum, n_components=16, seed=6)
    assert not np.array_equal(_elevation(a, origin, t), _elevation(b, origin, t))


def test_elevation_zero_mean(field, origin):
    t = np.arange(0, 600, 0.1)
    eta = _elevation(field, origin, t)
    assert abs(eta.mean()) < 0.1 * eta.std()


def test_realised_hs_matches_spectrum(calm_spectrum, origin):
    field = AmbientWaveField(calm_spectrum, n_components=128, seed=9)
    target = calm_spectrum.significant_wave_height()
    assert np.isclose(field.significant_wave_height(), target, rtol=0.15)


def test_acceleration_is_second_derivative_of_elevation(field, origin):
    dt = 1e-3
    t = np.arange(5.0, 8.0, dt)
    eta = _elevation(field, origin, t)
    acc = field.vertical_acceleration_batch([origin], t)[0]
    num = np.gradient(np.gradient(eta, dt), dt)
    # Compare away from the edges where np.gradient is one-sided.
    err = np.abs(num[10:-10] - acc[10:-10]).max()
    assert err < 0.01 * np.abs(acc).max()


def test_spatial_decorrelation(field):
    t = np.arange(0, 200, 0.1)
    a, b = field.elevation_batch([Position(0, 0), Position(500, 500)], t)
    rho = np.corrcoef(a, b)[0, 1]
    assert abs(rho) < 0.4


def test_nearby_points_correlated(field):
    # The band extends to 1.5 Hz whose deep-water wavelength is ~0.7 m,
    # so "nearby" must be well inside that scale.
    t = np.arange(0, 200, 0.1)
    a, b = field.elevation_batch([Position(0, 0), Position(0.05, 0.05)], t)
    rho = np.corrcoef(a, b)[0, 1]
    assert rho > 0.95


def test_horizontal_acceleration_shapes(field, origin):
    t = np.arange(0, 10, 0.1)
    ax, ay = field.horizontal_acceleration_batch([origin, Position(3, 4)], t)
    assert ax.shape == (2, t.size)
    assert ay.shape == (2, t.size)


def test_response_weighting_attenuates(field, origin):
    t = np.arange(0, 120, 0.02)
    full = field.vertical_acceleration_batch([origin], t)
    damped = field.vertical_acceleration_batch(
        [origin], t, responses=lambda f: np.full_like(np.asarray(f), 0.5)
    )
    assert np.allclose(damped, 0.5 * full)


def test_unidirectional_spreading(calm_spectrum, origin):
    field = AmbientWaveField(
        calm_spectrum, n_components=8, spreading_exponent=0.0, seed=2
    )
    directions = {c.direction_rad for c in field.components}
    assert directions == {0.0}


def test_components_are_deep_water_waves(field):
    # Deep-water dispersion, omega^2 = g k, bit for bit.
    for c in field.components:
        assert c.wavenumber == c.omega * c.omega / GRAVITY


def test_components_exposed_read_only(field):
    comps = field.components
    assert len(comps) == 48
    assert all(c.amplitude >= 0 for c in comps)


def test_rejects_bad_parameters(calm_spectrum):
    with pytest.raises(ConfigurationError):
        AmbientWaveField(calm_spectrum, n_components=0)
    with pytest.raises(ConfigurationError):
        AmbientWaveField(calm_spectrum, f_min_hz=1.0, f_max_hz=0.5)


class TestSpreadingCache:
    def test_cache_serves_repeat_constructions(self):
        spectrum = PiersonMoskowitzSpectrum(SeaState.CALM.wind_speed_mps)
        _spreading_cdf_table.cache_clear()
        AmbientWaveField(spectrum, n_components=8, seed=1)
        info = _spreading_cdf_table.cache_info()
        assert info.misses == 1
        AmbientWaveField(spectrum, n_components=8, seed=2)
        info = _spreading_cdf_table.cache_info()
        assert info.misses == 1
        assert info.hits >= 1

    def test_cached_table_is_read_only(self):
        cdf, edges = _spreading_cdf_table(8.0)
        with pytest.raises(ValueError):
            cdf[0] = 1.0
        with pytest.raises(ValueError):
            edges[0] = 1.0

    def test_directions_unchanged_by_caching(self):
        # The table is deterministic, so two identically-seeded fields
        # (one warming the cache, one served from it) realise the same
        # directions.
        spectrum = PiersonMoskowitzSpectrum(SeaState.CALM.wind_speed_mps)
        _spreading_cdf_table.cache_clear()
        a = AmbientWaveField(spectrum, n_components=32, seed=9)
        b = AmbientWaveField(spectrum, n_components=32, seed=9)
        for ca, cb in zip(a.components, b.components):
            assert ca.direction_rad == cb.direction_rad

"""Shared fixtures for the SID reproduction test suite."""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import settings

from repro.physics.spectrum import PiersonMoskowitzSpectrum, SeaState
from repro.physics.wavefield import AmbientWaveField
from repro.scenario.deployment import GridDeployment
from repro.types import Position

#: ``HYPOTHESIS_PROFILE=ci`` deepens every property that leaves its
#: example budget to the profile (ten times hypothesis' default, no
#: deadline); tier-1 runs the default profile.
settings.register_profile("ci", max_examples=1000, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture
def rng():
    """A deterministic generator for ad-hoc noise in tests."""
    return np.random.default_rng(1234)


@pytest.fixture
def calm_spectrum():
    """The calm-sea spectrum used throughout the scenario defaults."""
    return PiersonMoskowitzSpectrum(SeaState.CALM.wind_speed_mps)


@pytest.fixture
def small_field(calm_spectrum):
    """A small, fast ambient-field realisation."""
    return AmbientWaveField(calm_spectrum, n_components=32, seed=7)


@pytest.fixture
def tiny_grid():
    """A 2 x 2 grid deployment with deterministic hardware."""
    return GridDeployment(2, 2, spacing_m=25.0, seed=11)


@pytest.fixture
def origin():
    return Position(0.0, 0.0)

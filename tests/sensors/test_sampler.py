"""Tests for the fixed-rate sampler."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.sensors.sampler import Sampler


@pytest.fixture
def sampler():
    return Sampler(50.0)


def test_instants_grid(sampler):
    t = sampler.instants(10.0, 1.0)
    assert len(t) == 50
    assert t[0] == 10.0
    assert np.allclose(np.diff(t), 0.02)


def test_negative_duration_rejected(sampler):
    with pytest.raises(ConfigurationError):
        sampler.instants(0.0, -1.0)


def test_invalid_rate():
    with pytest.raises(ConfigurationError):
        Sampler(0.0)

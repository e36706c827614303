"""Tests for linear (Airy) wave theory."""

from __future__ import annotations

import math

import pytest

from repro.constants import GRAVITY
from repro.errors import ConfigurationError
from repro.physics.airy import dispersion_omega, wavenumber_from_omega


def test_deep_water_dispersion():
    k = 0.1
    assert math.isclose(dispersion_omega(k), math.sqrt(GRAVITY * k))


def test_finite_depth_reduces_omega():
    k = 0.1
    assert dispersion_omega(k, depth=2.0) < dispersion_omega(k)


def test_deep_limit_of_finite_depth():
    k = 1.0
    assert math.isclose(
        dispersion_omega(k, depth=500.0), dispersion_omega(k), rel_tol=1e-6
    )


def test_wavenumber_inverts_dispersion_deep():
    omega = 1.3
    k = wavenumber_from_omega(omega)
    assert math.isclose(dispersion_omega(k), omega, rel_tol=1e-9)


@pytest.mark.parametrize("depth", [2.0, 10.0, 50.0])
def test_wavenumber_inverts_dispersion_finite(depth):
    omega = 0.9
    k = wavenumber_from_omega(omega, depth)
    assert math.isclose(dispersion_omega(k, depth), omega, rel_tol=1e-8)


def test_shallow_water_wavenumber_larger():
    # Same frequency, shallower water -> shorter waves (larger k).
    omega = 0.8
    assert wavenumber_from_omega(omega, 3.0) > wavenumber_from_omega(omega)


@pytest.mark.parametrize(
    "fn,args",
    [
        (dispersion_omega, (0.0,)),
        (dispersion_omega, (-1.0,)),
        (wavenumber_from_omega, (0.0,)),
    ],
)
def test_invalid_inputs_rejected(fn, args):
    with pytest.raises(ConfigurationError):
        fn(*args)


def test_negative_depth_rejected():
    with pytest.raises(ConfigurationError):
        dispersion_omega(0.1, depth=-5.0)

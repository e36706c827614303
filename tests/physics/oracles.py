"""Reference evaluations the physics synthesis is checked against.

The synthesis sums sinusoids on the sample grid by block angle addition
(:func:`repro.physics.sinusoids.grid_sinusoid_sum`) and evaluates wake
packets on their few-second support only.  The functions here are the
plain full-grid formulations:

- :func:`shared_trig_sum` — the shared-trig GEMM: full
  ``(components x samples)`` ``cos(w t)`` / ``sin(w t)`` matrices
  contracted once each, with the signature of ``grid_sinusoid_sum``;
- :func:`direct_process_sum` — every row of a buoy tilt or drift
  process as the direct ``amps @ sin(w t + p)`` sum;
- :func:`buoy_specific_force` — one buoy's projection through its own
  tilt, the per-buoy form of the block
  :meth:`~repro.physics.buoy.Buoy.specific_force`;
- :func:`full_grid_wake` / :func:`full_grid_elevation` — a wake packet
  evaluated over the whole record and masked afterwards;
- :func:`elevation`, :func:`vertical_acceleration` and
  :func:`horizontal_acceleration` — the ambient field at one position
  from an explicit ``(components x samples)`` phase matrix, the
  textbook sums the fleet batch evaluators factor;
- :func:`shared_trig_ambient`, :func:`per_position_ambient` and
  :func:`reference_synthesis` — patch them into the pipeline, so a test
  or bench compares engines behind one front end.
"""

from __future__ import annotations

import math

import numpy as np
import numpy.typing as npt
import pytest

from repro.constants import GRAVITY
from repro.physics import wavefield
from repro.physics.buoy import Buoy, BuoyMotion, _SinusoidProcess
from repro.physics.wake_train import WakeTrain
from repro.physics.wavefield import AmbientWaveField, FrequencyResponse
from repro.types import Position


def shared_trig_sum(
    omega: np.ndarray,
    t: npt.ArrayLike,
    cos_weights: np.ndarray,
    sin_weights: np.ndarray,
) -> np.ndarray:
    """``c @ cos(w t) + s @ sin(w t)`` with full trig matrices."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    arg = omega[:, None] * t[None, :]
    return cos_weights @ np.cos(arg) + sin_weights @ np.sin(arg)


def direct_process_sum(process: _SinusoidProcess, t: npt.ArrayLike) -> np.ndarray:
    """Every row of a tilt/drift process as ``amps @ sin(2 pi f t + p)``;
    (rows, len(t))."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    phases = (
        2.0 * math.pi * process._freqs[:, :, None] * t
        + process._phases[:, :, None]
    )
    return np.asarray((process._amps[:, :, None] * np.sin(phases)).sum(axis=1))


def buoy_specific_force(
    buoy: Buoy,
    t: npt.ArrayLike,
    vertical_accel: npt.ArrayLike,
    horizontal_accel: tuple | None = None,
) -> BuoyMotion:
    """One buoy's body-frame specific force, tilted by its own process.

    ``fz = (g + a_z) cos(theta_x) cos(theta_y)``; with the surface's
    horizontal motion also ``fx = (g + a_z) sin(theta_y) + a_x`` and
    ``fy = -(g + a_z) sin(theta_x) + a_y``, else z only.
    """
    t = np.atleast_1d(np.asarray(t, dtype=float))
    vertical = GRAVITY + np.broadcast_to(
        np.asarray(vertical_accel, dtype=float), t.shape
    )
    theta_x, theta_y = buoy._tilt(t)
    fz = vertical * (np.cos(theta_x) * np.cos(theta_y))
    if horizontal_accel is None:
        return BuoyMotion(t=t, fx=None, fy=None, fz=fz)
    fx = vertical * np.sin(theta_y)
    fy = -vertical * np.sin(theta_x)
    fx += horizontal_accel[0]
    fy += horizontal_accel[1]
    return BuoyMotion(t=t, fx=fx, fy=fy, fz=fz)


def _full_grid_terms(
    train: WakeTrain, t: npt.ArrayLike
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, float, float]:
    """``tau``, the masked Hann envelope and derivatives, ``omega``, ``chi``."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    tau = t - train.arrival_time
    inside = (tau >= 0.0) & (tau <= train.duration)
    w = 2.0 * math.pi / train.duration
    env = np.where(inside, 0.5 * (1.0 - np.cos(w * tau)), 0.0)
    denv = np.where(inside, 0.5 * w * np.sin(w * tau), 0.0)
    ddenv = np.where(inside, 0.5 * w * w * np.cos(w * tau), 0.0)
    omega = 2.0 * math.pi * train.carrier_frequency_hz
    chi = 2.0 * math.pi * train.chirp
    return tau, env, denv, ddenv, omega, chi


def full_grid_elevation(train: WakeTrain, t: npt.ArrayLike) -> np.ndarray:
    """:meth:`WakeTrain.elevation` evaluated on every sample of ``t``."""
    tau, env, _, _, omega, chi = _full_grid_terms(train, t)
    phase = omega * tau + 0.5 * chi * tau * tau
    return train.amplitude * env * np.cos(phase)


def full_grid_wake(train: WakeTrain, t: npt.ArrayLike) -> np.ndarray:
    """:meth:`WakeTrain.vertical_acceleration` on every sample of ``t``."""
    tau, env, denv, ddenv, omega, chi = _full_grid_terms(train, t)
    phase = omega * tau + 0.5 * chi * tau * tau
    inst = omega + chi * tau
    cos_p = np.cos(phase)
    sin_p = np.sin(phase)
    second = (
        ddenv * cos_p
        - 2.0 * denv * inst * sin_p
        - env * inst * inst * cos_p
        - env * chi * sin_p
    )
    return train.amplitude * second


def _phases_at(
    field: AmbientWaveField, position: Position, t: npt.ArrayLike
) -> np.ndarray:
    """Phase matrix ``k.x + p - w t``, shape (n_components, len(t))."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    spatial = field._k * (
        position.x * field._dir_cos + position.y * field._dir_sin
    )
    return (spatial + field._phase)[:, None] - field._omega[:, None] * t[None, :]


def elevation(
    field: AmbientWaveField, position: Position, t: npt.ArrayLike
) -> np.ndarray:
    """Surface elevation [m] at ``position``: ``sum a_i cos(phase_i)``."""
    return np.asarray(field._amp @ np.cos(_phases_at(field, position, t)))


def vertical_acceleration(
    field: AmbientWaveField,
    position: Position,
    t: npt.ArrayLike,
    response: FrequencyResponse | None = None,
) -> np.ndarray:
    """``d^2 eta / dt^2 = -sum a_i w_i^2 cos(phase_i)``, gain-weighted."""
    weights = field._amp * field._omega**2
    if response is not None:
        freqs = field._omega / (2.0 * math.pi)
        weights = weights * np.asarray(response(freqs), dtype=float)
    return np.asarray(-(weights @ np.cos(_phases_at(field, position, t))))


def horizontal_acceleration(
    field: AmbientWaveField, position: Position, t: npt.ArrayLike
) -> tuple[np.ndarray, np.ndarray]:
    """Surface horizontal particle acceleration ``(ax, ay)`` [m/s^2]."""
    weights = field._amp * field._omega**2
    s = np.sin(_phases_at(field, position, t))
    ax = (weights * field._dir_cos) @ s
    ay = (weights * field._dir_sin) @ s
    return np.asarray(ax), np.asarray(ay)


def per_position_ambient(mp: pytest.MonkeyPatch) -> None:
    """Evaluate every ambient batch as a loop of per-position formulas.

    Each row of a batch then comes from :func:`elevation`,
    :func:`vertical_acceleration` or :func:`horizontal_acceleration` at
    one position, as the one-node synthesis did before it became the
    one-position batch.
    """

    def elevation_batch(self, positions, t):
        return np.array([elevation(self, p, t) for p in positions])

    def vertical_acceleration_batch(self, positions, t, responses=None):
        if responses is None or callable(responses):
            responses = [responses] * len(positions)
        return np.array(
            [
                vertical_acceleration(self, p, t, r)
                for p, r in zip(positions, responses, strict=True)
            ]
        )

    def horizontal_acceleration_batch(self, positions, t):
        axes = [horizontal_acceleration(self, p, t) for p in positions]
        return np.array([a[0] for a in axes]), np.array([a[1] for a in axes])

    mp.setattr(AmbientWaveField, "elevation_batch", elevation_batch)
    mp.setattr(
        AmbientWaveField, "vertical_acceleration_batch", vertical_acceleration_batch
    )
    mp.setattr(
        AmbientWaveField,
        "horizontal_acceleration_batch",
        horizontal_acceleration_batch,
    )


def shared_trig_ambient(mp: pytest.MonkeyPatch) -> None:
    """Evaluate the ambient batch with :func:`shared_trig_sum`.

    Takes a ``monkeypatch`` (or ``monkeypatch.context()``) so the swap
    is undone when the test or context ends.
    """
    mp.setattr(wavefield, "grid_sinusoid_sum", shared_trig_sum)


def reference_synthesis(mp: pytest.MonkeyPatch) -> None:
    """Route every synthesis term through its full-grid oracle.

    The ambient batch, the buoy's tilt and drift and the wake packets
    then evaluate trig at every sample, as the synthesis did before
    block angle addition and compact-support wakes; digitised counts
    must not change.
    """
    shared_trig_ambient(mp)
    mp.setattr(_SinusoidProcess, "__call__", direct_process_sum)
    mp.setattr(WakeTrain, "vertical_acceleration", full_grid_wake)
    mp.setattr(WakeTrain, "elevation", full_grid_elevation)

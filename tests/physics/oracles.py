"""Reference evaluations the physics synthesis is checked against.

The synthesis sums sinusoids on the sample grid by block angle addition
(:func:`repro.physics.sinusoids.grid_sinusoid_sum`) and evaluates wake
packets on their few-second support only.  The functions here are the
plain full-grid formulations:

- :func:`shared_trig_sum` — the shared-trig GEMM: full
  ``(components x samples)`` ``cos(w t)`` / ``sin(w t)`` matrices
  contracted once each, with the signature of ``grid_sinusoid_sum``;
- :func:`direct_process_sum` — a buoy tilt or drift process as the
  direct ``amps @ sin(w t + p)`` sum;
- :func:`full_grid_wake` / :func:`full_grid_elevation` — a wake packet
  evaluated over the whole record and masked afterwards;
- :func:`shared_trig_ambient` and :func:`reference_synthesis` — patch
  them into the pipeline, so a test or bench compares engines behind
  one front end.
"""

from __future__ import annotations

import math

import numpy as np
import numpy.typing as npt
import pytest

from repro.physics import wavefield
from repro.physics.buoy import _SinusoidProcess
from repro.physics.wake_train import WakeTrain


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
    """A tilt/drift process as ``amps @ sin(2 pi f t + p)``."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    phases = (
        2.0 * math.pi * process._freqs[:, None] * t[None, :]
        + process._phases[:, None]
    )
    return np.asarray(process._amps @ np.sin(phases))


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


def shared_trig_ambient(mp: pytest.MonkeyPatch) -> None:
    """Evaluate the time-domain ambient batch with :func:`shared_trig_sum`.

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

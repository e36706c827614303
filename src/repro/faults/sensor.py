"""Sensor-layer fault injection on the recorded counts.

:func:`corrupt_counts` applies one node's time-windowed pathologies to
the raw z counts its mote recorded.  The counts are the full,
contiguous record of one scenario starting at the synthesis epoch, so
sample index ``i`` maps to time ``t0 + i / rate_hz``.

Everything downstream (preprocessing, eqs. 4-8, cluster fusion) sees
the faulted counts with no idea a fault model exists — exactly how a
real stuck-at accelerometer presents.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.faults.plan import FaultStats, SensorFault, SensorFaultKind


def corrupt_counts(
    z: np.ndarray,
    faults: Sequence[SensorFault],
    t0: float,
    rate_hz: float,
    max_counts: int,
    rng: np.random.Generator,
    stats: FaultStats,
) -> np.ndarray:
    """One node's recorded z counts with its sensor faults applied.

    The faults act in plan order on a float copy of ``z``; the result
    is re-clipped to ±``max_counts`` and rounded back to int64 counts,
    as the device itself would.  ``z`` itself comes back when no fault
    touched a sample.  ``rng`` feeds the stochastic kinds (spike,
    dropout): a stream derived from the fault plan's seed, never the
    device noise.  A fault that touches samples counts once in
    ``stats.sensor_faults_injected`` and by those samples in
    ``stats.sensor_samples_faulted``.
    """
    out = np.asarray(z, dtype=float).copy()
    t = t0 + np.arange(out.size) / rate_hz
    touched = False
    for fault in faults:
        sel = np.flatnonzero(
            (t >= fault.start_s) & (t < fault.start_s + fault.duration_s)
        )
        if sel.size == 0:
            continue
        affected = _apply_one(out, t, sel, fault, rate_hz, max_counts, rng)
        if affected == 0:
            continue
        touched = True
        stats.sensor_faults_injected += 1
        stats.sensor_samples_faulted += affected
    if not touched:
        return z
    return np.rint(np.clip(out, -max_counts, max_counts)).astype(np.int64)


def _apply_one(
    out: np.ndarray,
    t: np.ndarray,
    sel: np.ndarray,
    fault: SensorFault,
    rate_hz: float,
    max_counts: int,
    rng: np.random.Generator,
) -> int:
    """Apply one fault to ``out[sel]``; returns the samples it touched."""
    kind = fault.kind
    if kind is SensorFaultKind.STUCK_AT:
        out[sel] = fault.magnitude
        return sel.size
    if kind is SensorFaultKind.DRIFT:
        out[sel] += fault.magnitude * (t[sel] - fault.start_s)
        return sel.size
    if kind is SensorFaultKind.SATURATION:
        limit = fault.magnitude * max_counts
        out[sel] = np.clip(out[sel], -limit, limit)
        return sel.size
    if kind is SensorFaultKind.SPIKE:
        p = min(fault.rate_hz / rate_hz, 1.0)
        hits = sel[rng.random(sel.size) < p]
        if hits.size:
            signs = rng.choice((-1.0, 1.0), size=hits.size)
            out[hits] += signs * fault.magnitude
        return int(hits.size)
    if kind is SensorFaultKind.DROPOUT:
        hits = sel[rng.random(sel.size) < fault.magnitude]
        out[hits] = 0.0
        return int(hits.size)
    raise AssertionError(f"unhandled sensor fault kind: {kind}")

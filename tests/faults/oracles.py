"""Reference sensor-fault injection the production path is checked against.

:class:`FaultyAccelerometer` is the accelerometer decorator the network
runner once swapped into each faulted mote for the length of synthesis:
it applies the node's faults to every z read the mote digitises.
:func:`synthesize_with_faults` replays that runner loop.  Production
instead applies :func:`repro.faults.sensor.corrupt_counts` to the z
counts a healthy synthesis recorded; both must agree bit for bit,
counters included.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np
import numpy.typing as npt

from repro.faults.plan import FaultPlan, FaultStats, SensorFault, SensorFaultKind
from repro.rng import derive_rng
from repro.scenario.deployment import GridDeployment
from repro.scenario.runner import FleetRecording
from repro.scenario.ship import ShipTrack
from repro.scenario.synthesis import SynthesisConfig, synthesize_fleet_traces
from repro.sensors.accelerometer import Accelerometer


class FaultyAccelerometer:
    """Accelerometer decorator applying time-windowed faults to z reads.

    ``read``/``read_axis``/``read_z`` must receive the full, contiguous
    record of one scenario starting at ``t0``, so sample ``i`` maps to
    time ``t0 + i / rate_hz``.  x and y reads pass through untouched.
    """

    def __init__(
        self,
        inner: Accelerometer,
        faults: Sequence[SensorFault],
        t0: float,
        rate_hz: float,
        rng: np.random.Generator,
        stats: FaultStats,
    ) -> None:
        self.inner = inner
        self.faults = tuple(faults)
        self._t0 = t0
        self._rate = rate_hz
        self._rng = rng
        self._stats = stats
        self._activated: set[int] = set()

    def __getattr__(self, name: str) -> Any:
        return getattr(self.inner, name)

    def read_axis(self, accel_mps2: npt.ArrayLike, axis: int) -> np.ndarray:
        counts = self.inner.read_axis(accel_mps2, axis)
        return self._apply(counts) if axis == 2 else counts

    def read(
        self,
        fx_mps2: npt.ArrayLike,
        fy_mps2: npt.ArrayLike,
        fz_mps2: npt.ArrayLike,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return (
            self.read_axis(fx_mps2, 0),
            self.read_axis(fy_mps2, 1),
            self.read_axis(fz_mps2, 2),
        )

    def read_z(self, fz_mps2: npt.ArrayLike) -> np.ndarray:
        return self._apply(self.inner.read_z(fz_mps2))

    def _apply(self, counts: np.ndarray) -> np.ndarray:
        out = np.atleast_1d(np.asarray(counts, dtype=float)).copy()
        t = self._t0 + np.arange(out.size) / self._rate
        touched = False
        for idx, fault in enumerate(self.faults):
            sel = np.flatnonzero(
                (t >= fault.start_s) & (t < fault.start_s + fault.duration_s)
            )
            if sel.size == 0:
                continue
            affected = self._apply_one(out, t, sel, fault)
            if affected == 0:
                continue
            touched = True
            self._stats.sensor_samples_faulted += affected
            if idx not in self._activated:
                self._activated.add(idx)
                self._stats.sensor_faults_injected += 1
        if not touched:
            return np.asarray(counts)
        limit = self.inner.spec.max_counts
        result = np.rint(np.clip(out, -limit, limit)).astype(np.int64)
        return result.reshape(np.shape(counts))

    def _apply_one(
        self,
        out: np.ndarray,
        t: np.ndarray,
        sel: np.ndarray,
        fault: SensorFault,
    ) -> int:
        kind = fault.kind
        if kind is SensorFaultKind.STUCK_AT:
            out[sel] = fault.magnitude
            return sel.size
        if kind is SensorFaultKind.DRIFT:
            out[sel] += fault.magnitude * (t[sel] - fault.start_s)
            return sel.size
        if kind is SensorFaultKind.SATURATION:
            limit = fault.magnitude * self.inner.spec.max_counts
            out[sel] = np.clip(out[sel], -limit, limit)
            return sel.size
        if kind is SensorFaultKind.SPIKE:
            p = min(fault.rate_hz / self._rate, 1.0)
            hits = sel[self._rng.random(sel.size) < p]
            if hits.size:
                signs = self._rng.choice((-1.0, 1.0), size=hits.size)
                out[hits] += signs * fault.magnitude
            return int(hits.size)
        if kind is SensorFaultKind.DROPOUT:
            hits = sel[self._rng.random(sel.size) < fault.magnitude]
            out[hits] = 0.0
            return int(hits.size)
        raise AssertionError(f"unhandled sensor fault kind: {kind}")


def synthesize_with_faults(
    deployment: GridDeployment,
    ships: Sequence[ShipTrack],
    synth: SynthesisConfig,
    plan: FaultPlan,
    seed: int,
) -> tuple[FleetRecording, FaultStats]:
    """Synthesise with each faulted mote's accelerometer decorated.

    The decorators draw from the injector's ``fault-sensor-{node_id}``
    streams and share one :class:`FaultStats`; every healthy device is
    restored afterwards.
    """
    stats = FaultStats()
    wrapped: list[tuple[Any, Accelerometer]] = []
    for node in deployment:
        faults = plan.sensor_faults_for(node.node_id)
        if not faults:
            continue
        wrapped.append((node.mote, node.mote.accelerometer))
        node.mote.accelerometer = FaultyAccelerometer(
            node.mote.accelerometer,
            faults,
            t0=synth.t0,
            rate_hz=node.mote.config.sample_rate_hz,
            rng=derive_rng(plan.seed, f"fault-sensor-{node.node_id}"),
            stats=stats,
        )
    try:
        traces = synthesize_fleet_traces(deployment, ships, synth, seed=seed)
    finally:
        for mote, healthy in wrapped:
            mote.accelerometer = healthy
    return FleetRecording.from_traces(deployment, traces), stats

"""The assembled mote: accelerometer + clock + battery on one buoy.

Mirrors the paper's hardware unit (Fig. 4): an iMote2 processor/radio
board with the ITS400 sensor board, mounted in a bottle on a buoy.  The
mote turns the buoy's specific-force history into a timestamped raw
count trace (:class:`repro.types.AccelTrace`) — the exact input the
detection pipeline consumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.constants import SAMPLE_RATE_HZ
from repro.errors import ConfigurationError
from repro.physics.buoy import BuoyMotion
from repro.rng import RandomState, derive_rng, make_rng
from repro.sensors.accelerometer import Accelerometer
from repro.sensors.battery import Battery
from repro.sensors.clock import Clock
from repro.sensors.sampler import Sampler
from repro.types import AccelTrace


@dataclass(frozen=True)
class MoteConfig:
    """Configuration bundle for one :class:`IMote2`.

    The accelerometer, the energy prices and the clock's sync residual
    are the defaults of :class:`~repro.sensors.accelerometer.AccelerometerSpec`,
    :class:`~repro.sensors.battery.EnergyCosts` and
    :class:`~repro.sensors.clock.Clock`.
    """

    sample_rate_hz: float = SAMPLE_RATE_HZ
    battery_capacity_j: float = 10_000.0
    clock_drift_ppm: float = 20.0

    def __post_init__(self) -> None:
        if self.sample_rate_hz <= 0:
            raise ConfigurationError(
                f"sample_rate_hz must be positive, got {self.sample_rate_hz}"
            )


class IMote2:
    """One deployed mote.

    Parameters
    ----------
    node_id:
        Network-wide identifier.
    config:
        Hardware configuration (defaults model the paper's platform).
    seed:
        Random state; device bias, sensor noise and clock residuals all
        derive deterministic child streams from it.
    """

    def __init__(
        self,
        node_id: int,
        config: MoteConfig | None = None,
        seed: RandomState = None,
    ) -> None:
        if node_id < 0:
            raise ConfigurationError(f"node_id must be >= 0, got {node_id}")
        self.node_id = node_id
        self.config = config if config is not None else MoteConfig()
        base = make_rng(seed)
        self.accelerometer = Accelerometer(
            seed=derive_rng(int(base.integers(2**31)), f"accel-{node_id}"),
        )
        self.clock = Clock(
            drift_ppm=self.config.clock_drift_ppm,
            seed=derive_rng(int(base.integers(2**31)), f"clock-{node_id}"),
        )
        self.battery = Battery(self.config.battery_capacity_j)
        self.sampler = Sampler(self.config.sample_rate_hz)

    def record(self, motion: BuoyMotion) -> AccelTrace:
        """Digitise a buoy motion history into a raw count trace.

        ``motion`` must be sampled on this mote's own grid (use
        :meth:`sample_instants` to build it).  Timestamps in the
        returned trace are *local clock* readings — the same imperfect
        stamps real reports would carry.  A z-only motion gives a
        z-only trace (``x``/``y`` are ``None``); its z counts, the
        device's noise stream and the battery end as a three-axis
        record of the same motion leaves them.
        """
        t = motion.t
        if t.size == 0:
            raise ConfigurationError("empty motion record")
        x: Optional[np.ndarray] = None
        y: Optional[np.ndarray] = None
        if motion.fx is None or motion.fy is None:
            z = self.accelerometer.read_z(motion.fz)
        else:
            x, y, z = self.accelerometer.read(motion.fx, motion.fy, motion.fz)
        self.battery.draw_samples(t.size)
        local_t0 = self.clock.local_time(float(t[0]))
        return AccelTrace(
            t0=local_t0,
            rate_hz=self.config.sample_rate_hz,
            x=x,
            y=y,
            z=z,
        )

    def sample_instants(self, t0: float, duration_s: float) -> np.ndarray:
        """True-time sample grid for a recording starting at ``t0``."""
        return self.sampler.instants(t0, duration_s)

    def synchronize_clock(self, true_time: float) -> float:
        """Run a time-sync exchange; bills the radio energy."""
        self.battery.draw_tx(16)
        self.battery.draw_rx(16)
        return self.clock.synchronize(true_time)

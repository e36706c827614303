"""Sensor-hardware substrate: the iMote2 + ITS400 platform of Sec. III-A.

Models the parts of the Crossbow hardware the detection pipeline
depends on: the ST LIS3L02DQ three-axis accelerometer (+/-2 g, 12-bit)
behind a 50 Hz sampler, a drifting node clock with residual sync error,
and a battery energy budget for the long-term-surveillance arguments of
Sec. IV-A.
"""

from repro.sensors.accelerometer import Accelerometer, AccelerometerSpec
from repro.sensors.battery import Battery, EnergyCosts
from repro.sensors.clock import Clock
from repro.sensors.imote2 import IMote2, MoteConfig
from repro.sensors.sampler import Sampler

__all__ = [
    "Accelerometer",
    "AccelerometerSpec",
    "Battery",
    "Clock",
    "EnergyCosts",
    "IMote2",
    "MoteConfig",
    "Sampler",
]

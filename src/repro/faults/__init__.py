"""Fault injection and graceful degradation across the SID stack.

See :mod:`repro.faults.plan` for the declarative fault model,
:mod:`repro.faults.injector` for compilation against a run,
:mod:`repro.faults.sensor` for the sensor faults applied to a run's
recorded counts, and the channel and delivery decorators in
:mod:`repro.faults.network`.
"""

from repro.faults.injector import FaultInjector
from repro.faults.network import DeliveryFaults, FaultyChannel, GilbertElliott
from repro.faults.plan import (
    BatteryDrain,
    BurstLoss,
    ClockSyncFailure,
    FaultPlan,
    FaultStats,
    LinkBlackout,
    MessageDelay,
    MessageDuplication,
    NodeCrash,
    SensorFault,
    SensorFaultKind,
)
from repro.faults.sensor import corrupt_counts

__all__ = [
    "BatteryDrain",
    "BurstLoss",
    "ClockSyncFailure",
    "DeliveryFaults",
    "FaultInjector",
    "FaultPlan",
    "FaultStats",
    "FaultyChannel",
    "GilbertElliott",
    "LinkBlackout",
    "MessageDelay",
    "MessageDuplication",
    "NodeCrash",
    "SensorFault",
    "SensorFaultKind",
    "corrupt_counts",
]

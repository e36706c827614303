"""Deterministic fault plans for the sensing–network–fusion stack.

The paper's central robustness claim (Sec. IV-C) is that cluster-level
spatial–temporal fusion "absorbs" node faults and wireless errors in a
real sea deployment.  A :class:`FaultPlan` makes that claim testable:
it is a frozen, declarative description of every fault the run should
suffer — sensor pathologies, node crashes, battery acceleration, burst
loss, link blackouts, message duplication/reordering, and clock-sync
failure — compiled against one scenario by
:class:`repro.faults.injector.FaultInjector`.

Two invariants every consumer relies on:

- **Determinism** — a plan plus a scenario seed replays identically;
  every stochastic fault process draws from its own derived stream.
- **Zero-entropy when inactive** — an empty plan (``FaultPlan.none()``
  or ``faults=None``) installs no hooks at all, so unfaulted runs
  reproduce pre-fault-framework results bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

from repro.errors import ConfigurationError
from repro.rng import derive_rng


# ----------------------------------------------------------------------
# Sensor faults
# ----------------------------------------------------------------------
class SensorFaultKind(Enum):
    """The accelerometer pathologies the model can inject."""

    #: Output frozen at ``magnitude`` counts.
    STUCK_AT = "stuck-at"
    #: Additive ramp of ``magnitude`` counts per second since onset.
    DRIFT = "drift"
    #: Random ±``magnitude``-count impulses at ~``rate_hz`` per second.
    SPIKE = "spike"
    #: Output clipped to ``magnitude`` × full-scale (0 < magnitude <= 1).
    SATURATION = "saturation"
    #: Samples replaced by zero with probability ``magnitude``.
    DROPOUT = "dropout"


@dataclass(frozen=True)
class SensorFault:
    """One time-windowed fault on one node's z accelerometer counts."""

    node_id: int
    kind: SensorFaultKind
    start_s: float
    duration_s: float = math.inf
    magnitude: float = 0.0
    #: Mean impulse rate for :attr:`SensorFaultKind.SPIKE` [1/s].
    rate_hz: float = 1.0

    def __post_init__(self) -> None:
        if self.duration_s <= 0:
            raise ConfigurationError(
                f"duration_s must be positive, got {self.duration_s}"
            )
        if self.kind is SensorFaultKind.SPIKE and self.rate_hz <= 0:
            raise ConfigurationError(
                f"spike rate_hz must be positive, got {self.rate_hz}"
            )
        if self.kind is SensorFaultKind.SATURATION and not (
            0.0 < self.magnitude <= 1.0
        ):
            raise ConfigurationError(
                "saturation magnitude is a fraction of full scale in (0, 1], "
                f"got {self.magnitude}"
            )
        if self.kind is SensorFaultKind.DROPOUT and not (
            0.0 <= self.magnitude <= 1.0
        ):
            raise ConfigurationError(
                f"dropout magnitude is a probability in [0, 1], got {self.magnitude}"
            )

    def window_contains(self, t: float) -> bool:
        """True while the fault is active at time ``t``."""
        return self.start_s <= t < self.start_s + self.duration_s


# ----------------------------------------------------------------------
# Node faults
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class NodeCrash:
    """A node goes dark at ``at_s``; optionally reboots later.

    While crashed the node neither samples, ticks, transmits nor
    receives.  A reboot restores the process with its detection state
    intact (warm restart — the paper's motes keep state in RAM across
    watchdog resets).  A node is down while any of its entries covers
    the time: see :meth:`FaultPlan.outages`.
    """

    node_id: int
    at_s: float
    reboot_after_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.reboot_after_s is not None and self.reboot_after_s <= 0:
            raise ConfigurationError(
                f"reboot_after_s must be positive, got {self.reboot_after_s}"
            )


@dataclass(frozen=True)
class Outage:
    """One stretch a node is down: its overlapping crash entries merged.

    The node is down over the closed interval ``[start_s, end_s]``;
    ``end_s`` is ``inf`` when no entry reboots it.  ``crash`` is the
    entry that opens the outage.
    """

    crash: NodeCrash
    start_s: float
    end_s: float


@dataclass(frozen=True)
class BatteryDrain:
    """Battery-depletion acceleration: every draw costs ``factor`` × more."""

    node_id: int
    at_s: float
    factor: float

    def __post_init__(self) -> None:
        if self.factor <= 1.0:
            raise ConfigurationError(
                f"drain factor must exceed 1, got {self.factor}"
            )


@dataclass(frozen=True)
class ClockSyncFailure:
    """Periodic resync suppressed for one node inside the window.

    With resync suppressed, :class:`repro.sensors.clock.Clock` drift
    accumulates unbounded — the failure mode the paper's "certain
    precision required by our application" caveat glosses over.
    """

    node_id: int
    start_s: float = 0.0
    duration_s: float = math.inf

    def __post_init__(self) -> None:
        if self.duration_s <= 0:
            raise ConfigurationError(
                f"duration_s must be positive, got {self.duration_s}"
            )

    def window_contains(self, t: float) -> bool:
        """True while resync is suppressed at time ``t``."""
        return self.start_s <= t < self.start_s + self.duration_s


# ----------------------------------------------------------------------
# Network faults
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class BurstLoss:
    """Gilbert–Elliott two-state burst loss, layered on the channel.

    The chain steps once per frame attempt; the *bad* state models an
    interference burst during which most frames die regardless of SNR.
    This composes with ``ChannelConfig.base_loss_rate`` (uniform loss),
    which stays in force underneath.
    """

    start_s: float = 0.0
    duration_s: float = math.inf
    p_good_to_bad: float = 0.02
    p_bad_to_good: float = 0.25
    bad_loss_rate: float = 0.9
    good_loss_rate: float = 0.0

    def __post_init__(self) -> None:
        if self.duration_s <= 0:
            raise ConfigurationError(
                f"duration_s must be positive, got {self.duration_s}"
            )
        for name in (
            "p_good_to_bad",
            "p_bad_to_good",
            "bad_loss_rate",
            "good_loss_rate",
        ):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigurationError(
                    f"{name} must be in [0, 1], got {value}"
                )

    def window_contains(self, t: float) -> bool:
        """True while the burst process is running at time ``t``."""
        return self.start_s <= t < self.start_s + self.duration_s


@dataclass(frozen=True)
class LinkBlackout:
    """Total loss on one link (or all links of one node) for a window."""

    node_a: int
    #: Peer node id, or ``None`` to black out every link touching
    #: ``node_a`` (antenna submerged, connector corroded...).
    node_b: Optional[int]
    start_s: float
    duration_s: float

    def __post_init__(self) -> None:
        if self.duration_s <= 0:
            raise ConfigurationError(
                f"duration_s must be positive, got {self.duration_s}"
            )

    def covers(self, src: int, dst: int, t: float) -> bool:
        """True when this blackout kills a (src, dst) frame at ``t``."""
        if not self.start_s <= t < self.start_s + self.duration_s:
            return False
        if self.node_b is None:
            return self.node_a in (src, dst)
        return {self.node_a, self.node_b} == {src, dst}


@dataclass(frozen=True)
class MessageDuplication:
    """Frames are delivered twice with the given probability.

    The duplicate arrives ``delay_s`` later, so it may also land out of
    order with respect to later traffic — receivers must stay
    idempotent (the flood dedup sets and the per-node best-report rule
    are what this fault exercises).
    """

    probability: float
    delay_s: float = 0.01
    start_s: float = 0.0
    duration_s: float = math.inf

    def __post_init__(self) -> None:
        if not 0.0 < self.probability <= 1.0:
            raise ConfigurationError(
                f"probability must be in (0, 1], got {self.probability}"
            )
        if self.delay_s <= 0 or self.duration_s <= 0:
            raise ConfigurationError("delay_s and duration_s must be positive")

    def window_contains(self, t: float) -> bool:
        """True while duplication is active at time ``t``."""
        return self.start_s <= t < self.start_s + self.duration_s


@dataclass(frozen=True)
class MessageDelay:
    """Frames are held back ``delay_s`` with the given probability.

    Delayed frames overtake nothing but are overtaken by everything
    sent in the window — the reordering the sink's merge window and the
    cluster's onset-ordering rules must tolerate.
    """

    probability: float
    delay_s: float
    start_s: float = 0.0
    duration_s: float = math.inf

    def __post_init__(self) -> None:
        if not 0.0 < self.probability <= 1.0:
            raise ConfigurationError(
                f"probability must be in (0, 1], got {self.probability}"
            )
        if self.delay_s <= 0 or self.duration_s <= 0:
            raise ConfigurationError("delay_s and duration_s must be positive")

    def window_contains(self, t: float) -> bool:
        """True while delay injection is active at time ``t``."""
        return self.start_s <= t < self.start_s + self.duration_s


# ----------------------------------------------------------------------
# The plan
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FaultPlan:
    """Everything that will go wrong in one run, declared up front."""

    sensor_faults: tuple[SensorFault, ...] = ()
    node_crashes: tuple[NodeCrash, ...] = ()
    battery_drains: tuple[BatteryDrain, ...] = ()
    burst_loss: Optional[BurstLoss] = None
    link_blackouts: tuple[LinkBlackout, ...] = ()
    duplication: Optional[MessageDuplication] = None
    delay: Optional[MessageDelay] = None
    sync_failures: tuple[ClockSyncFailure, ...] = ()
    #: Entropy root for the plan's stochastic fault processes (spikes,
    #: dropout, burst-loss chain, duplication draws).  Independent of
    #: the scenario seed so the same fault realisation can be replayed
    #: against different sea states.
    seed: int = 0

    @property
    def active(self) -> bool:
        """True when the plan injects anything at all."""
        return bool(
            self.sensor_faults
            or self.node_crashes
            or self.battery_drains
            or self.burst_loss is not None
            or self.link_blackouts
            or self.duplication is not None
            or self.delay is not None
            or self.sync_failures
        )

    @classmethod
    def none(cls) -> "FaultPlan":
        """The empty plan: installs no hooks, consumes no entropy."""
        return cls()

    def sensor_faults_for(self, node_id: int) -> tuple[SensorFault, ...]:
        """The sensor faults afflicting one node."""
        return tuple(
            f for f in self.sensor_faults if f.node_id == node_id
        )

    def sync_suppressed(self, node_id: int, t: float) -> bool:
        """True when a sync failure covers ``node_id`` at time ``t``."""
        return any(
            f.node_id == node_id and f.window_contains(t)
            for f in self.sync_failures
        )

    def outages(self, now: float) -> tuple[Outage, ...]:
        """Every node's downtime, as merged closed intervals.

        Entry ``c`` keeps its node down over ``[lo, lo +
        c.reboot_after_s]`` with ``lo = max(c.at_s, now)`` (``inf``
        without a reboot): a crash planned before ``now`` lands at
        ``now``.  A node is down while any of its entries covers the
        time, so one node's entries whose intervals overlap or touch
        merge into one outage.  Outages come in the plan order of the
        entry that opens each, so a plan without overlaps yields one
        outage per entry, in plan order.
        """
        by_node: dict[int, list[tuple[float, int, float]]] = {}
        for k, crash in enumerate(self.node_crashes):
            lo = max(crash.at_s, now)
            hi = (
                lo + crash.reboot_after_s
                if crash.reboot_after_s is not None
                else math.inf
            )
            by_node.setdefault(crash.node_id, []).append((lo, k, hi))
        merged: list[tuple[int, float, float]] = []
        for spans in by_node.values():
            spans.sort()  # by start; a tie opens with the earlier entry
            lo0, k0, hi0 = spans[0]
            for lo, k, hi in spans[1:]:
                if lo <= hi0:
                    hi0 = max(hi0, hi)
                else:
                    merged.append((k0, lo0, hi0))
                    lo0, k0, hi0 = lo, k, hi
            merged.append((k0, lo0, hi0))
        return tuple(
            Outage(self.node_crashes[k], lo, hi) for k, lo, hi in sorted(merged)
        )

    @property
    def has_channel_faults(self) -> bool:
        """True when the radio channel needs the fault decorator."""
        return self.burst_loss is not None or bool(self.link_blackouts)

    @property
    def has_delivery_faults(self) -> bool:
        """True when frame delivery needs duplication/delay hooks."""
        return self.duplication is not None or self.delay is not None

    # ------------------------------------------------------------------
    @classmethod
    def rolling_crashes(
        cls,
        node_ids: Sequence[int],
        first_at_s: float = 60.0,
        interval_s: float = 20.0,
        downtime_s: float = 45.0,
    ) -> "FaultPlan":
        """A staggered wave of crash-and-reboot outages, in caller order.

        Node ``i`` goes dark at ``first_at_s + i * interval_s`` and
        reboots ``downtime_s`` later — the chaos-soak pattern: with
        ``downtime_s > interval_s`` outages overlap, so at least one
        forwarder is always down during the wave.  A node named twice
        whose outages overlap stays down until the later reboot
        (:meth:`outages`).  The plan is fully deterministic (no entropy
        drawn).
        """
        ids = list(node_ids)
        if not ids:
            raise ConfigurationError("need at least one node to crash")
        if first_at_s < 0:
            raise ConfigurationError(
                f"first_at_s must be >= 0, got {first_at_s}"
            )
        if interval_s <= 0 or downtime_s <= 0:
            raise ConfigurationError(
                "interval_s and downtime_s must be positive"
            )
        return cls(
            node_crashes=tuple(
                NodeCrash(
                    node_id=nid,
                    at_s=first_at_s + i * interval_s,
                    reboot_after_s=downtime_s,
                )
                for i, nid in enumerate(ids)
            )
        )

    @classmethod
    def random(
        cls,
        node_ids: Sequence[int],
        crash_fraction: float = 0.0,
        crash_window_s: tuple[float, float] = (0.0, 300.0),
        reboot_after_s: Optional[float] = None,
        sensor_fault_fraction: float = 0.0,
        sensor_fault_window_s: tuple[float, float] = (0.0, 300.0),
        sensor_fault_magnitude: float = 200.0,
        sync_failure_fraction: float = 0.0,
        burst_loss: Optional[BurstLoss] = None,
        seed: int = 0,
    ) -> "FaultPlan":
        """Sample a plan hitting random fractions of the fleet.

        Node subsets and onset times are drawn from a stream derived
        solely from ``seed``, so the same call yields the same plan
        regardless of scenario seeding.  Sensor-fault kinds cycle
        through the catalogue so a sweep exercises all of them.
        """
        for name, fraction in (
            ("crash_fraction", crash_fraction),
            ("sensor_fault_fraction", sensor_fault_fraction),
            ("sync_failure_fraction", sync_failure_fraction),
        ):
            if not 0.0 <= fraction <= 1.0:
                raise ConfigurationError(
                    f"{name} must be in [0, 1], got {fraction}"
                )
        rng = derive_rng(seed, "fault-plan")
        ids = sorted(node_ids)

        def pick(fraction: float) -> list[int]:
            n = int(round(fraction * len(ids)))
            if n == 0:
                return []
            chosen = rng.choice(len(ids), size=n, replace=False)
            return sorted(ids[i] for i in chosen)

        crashes = tuple(
            NodeCrash(
                node_id=nid,
                at_s=float(rng.uniform(*crash_window_s)),
                reboot_after_s=reboot_after_s,
            )
            for nid in pick(crash_fraction)
        )
        kinds = [
            SensorFaultKind.STUCK_AT,
            SensorFaultKind.DRIFT,
            SensorFaultKind.SPIKE,
            SensorFaultKind.SATURATION,
            SensorFaultKind.DROPOUT,
        ]
        sensor = []
        for i, nid in enumerate(pick(sensor_fault_fraction)):
            kind = kinds[i % len(kinds)]
            magnitude = {
                SensorFaultKind.STUCK_AT: sensor_fault_magnitude,
                SensorFaultKind.DRIFT: sensor_fault_magnitude / 60.0,
                SensorFaultKind.SPIKE: sensor_fault_magnitude,
                SensorFaultKind.SATURATION: 0.25,
                SensorFaultKind.DROPOUT: 0.3,
            }[kind]
            sensor.append(
                SensorFault(
                    node_id=nid,
                    kind=kind,
                    start_s=float(rng.uniform(*sensor_fault_window_s)),
                    magnitude=magnitude,
                )
            )
        sync = tuple(
            ClockSyncFailure(node_id=nid)
            for nid in pick(sync_failure_fraction)
        )
        return cls(
            sensor_faults=tuple(sensor),
            node_crashes=crashes,
            burst_loss=burst_loss,
            sync_failures=sync,
            seed=seed,
        )


@dataclass
class FaultStats:
    """Counters for everything the fault plan injected.

    Filled by the fault hooks; the scenario runner snapshots them with
    :func:`dataclasses.asdict` so results can assert exact counts.
    ``sensor_samples_faulted`` is a per-sample volume, not a count of
    fault events.
    """

    sensor_faults_injected: int = 0
    sensor_samples_faulted: int = 0
    node_crashes: int = 0
    node_reboots: int = 0
    battery_drains: int = 0
    frames_burst_lost: int = 0
    frames_blackout_lost: int = 0
    frames_duplicated: int = 0
    frames_delayed: int = 0
    resyncs_suppressed: int = 0

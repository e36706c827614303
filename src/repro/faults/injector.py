"""Compiling a :class:`FaultPlan` against one scenario run.

The injector owns the plan's entropy (independent derived streams per
fault family), applies the sensor faults to the counts a run recorded,
builds the network decorators, and schedules the event-driven faults —
node crash/reboot and battery drain — on the scenario's discrete-event
loop.  Counters accumulate in one :class:`repro.faults.plan.FaultStats`
shared by every hook, so the scenario result can report exact
injected-fault counts.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Any, Optional

import numpy as np

from repro.faults.network import DeliveryFaults, FaultyChannel
from repro.faults.plan import BatteryDrain, FaultPlan, FaultStats, Outage
from repro.faults.sensor import corrupt_counts
from repro.network.channel import Channel
from repro.rng import derive_rng
from repro.telemetry.events import CAT_FAULT
from repro.telemetry.tracer import Tracer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.network.nodeproc import SensorNetwork


class FaultInjector:
    """One plan, compiled and armed for one run.

    Construction is cheap and side-effect free; nothing touches the
    scenario until :meth:`corrupt_counts` / :meth:`wrap_channel` /
    :meth:`install` are invoked.  An inactive plan short-circuits every
    method, so the unfaulted path stays byte-identical to a run without
    an injector at all.
    """

    def __init__(
        self,
        plan: FaultPlan | None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.plan = plan if plan is not None else FaultPlan.none()
        self.stats = FaultStats()
        self.tracer = tracer
        self._channel_wrapper: Optional[FaultyChannel] = None
        # Independent entropy per fault family: replaying a plan against
        # a different scenario keeps the same fault realisation.
        root = self.plan.seed

        def stream(name: str) -> np.random.Generator:
            return derive_rng(root, f"fault-{name}")

        self._stream = stream

    @property
    def active(self) -> bool:
        """True when the plan injects anything."""
        return self.plan.active

    # ------------------------------------------------------------------
    # Sensor faults and network decorators
    # ------------------------------------------------------------------
    def corrupt_counts(
        self,
        node_id: int,
        z: np.ndarray,
        t0: float,
        rate_hz: float,
        max_counts: int,
    ) -> np.ndarray:
        """``node_id``'s recorded z counts with its sensor faults applied.

        A node the plan leaves healthy gets ``z`` itself back.
        """
        faults = self.plan.sensor_faults_for(node_id)
        if not faults:
            return z
        return corrupt_counts(
            z,
            faults,
            t0,
            rate_hz,
            max_counts,
            self._stream(f"sensor-{node_id}"),
            self.stats,
        )

    def wrap_channel(self, channel: Channel) -> Channel:
        """Layer burst loss / blackouts over ``channel`` when planned."""
        if not self.plan.has_channel_faults:
            return channel
        self._channel_wrapper = FaultyChannel(
            channel,
            burst=self.plan.burst_loss,
            blackouts=self.plan.link_blackouts,
            rng=self._stream("burst"),
            stats=self.stats,
        )
        return self._channel_wrapper

    def delivery_faults(self) -> Optional[DeliveryFaults]:
        """The duplication/delay hook, or None when not planned."""
        if not self.plan.has_delivery_faults:
            return None
        return DeliveryFaults(
            duplication=self.plan.duplication,
            delay=self.plan.delay,
            rng=self._stream("delivery"),
            stats=self.stats,
        )

    # ------------------------------------------------------------------
    # Event-driven faults
    # ------------------------------------------------------------------
    def install(self, network: "SensorNetwork") -> None:
        """Arm the event-driven faults on a built network.

        Binds the channel decorator to the simulation clock, attaches
        the delivery hook, and schedules one crash per node outage
        (:meth:`FaultPlan.outages`) and every battery drain the plan
        declares.  A no-op for inactive plans.
        """
        if not self.active:
            return
        if self.tracer is not None:
            self._trace_windows()
        if self._channel_wrapper is not None:
            self._channel_wrapper.bind_clock(lambda: network.sim.now)
        hook = self.delivery_faults()
        if hook is not None:
            network.delivery_faults = hook
        for outage in self.plan.outages(network.sim.now):
            network.sim.schedule_at(
                outage.start_s, self._crash, network, outage
            )
        for drain in self.plan.battery_drains:
            network.sim.schedule_at(
                max(drain.at_s, network.sim.now), self._drain, network, drain
            )

    def _trace_windows(self) -> None:
        """Emit activation/expiry point events for windowed faults.

        Emitted once at install time with ``sim_time_s`` set to the
        window boundary, so the Chrome export places them correctly on
        the simulation timeline.  Infinite windows get no expiry event
        (``inf`` is not valid strict JSON).
        """
        tracer = self.tracer
        if tracer is None:
            return

        def window(
            name: str,
            start_s: float,
            duration_s: float,
            node_id: Optional[int] = None,
            **fields: Any,
        ) -> None:
            tracer.emit(
                CAT_FAULT,
                f"{name}_start",
                sim_time_s=start_s,
                node_id=node_id,
                **fields,
            )
            if math.isfinite(duration_s):
                tracer.emit(
                    CAT_FAULT,
                    f"{name}_end",
                    sim_time_s=start_s + duration_s,
                    node_id=node_id,
                )

        plan = self.plan
        for fault in plan.sensor_faults:
            window(
                f"sensor_{fault.kind.value}",
                fault.start_s,
                fault.duration_s,
                node_id=fault.node_id,
                magnitude=fault.magnitude,
            )
        if plan.burst_loss is not None:
            window(
                "burst_loss",
                plan.burst_loss.start_s,
                plan.burst_loss.duration_s,
                bad_loss_rate=plan.burst_loss.bad_loss_rate,
            )
        for blackout in plan.link_blackouts:
            window(
                "link_blackout",
                blackout.start_s,
                blackout.duration_s,
                node_id=blackout.node_a,
                peer=blackout.node_b,
            )
        for sync in plan.sync_failures:
            window(
                "sync_failure",
                sync.start_s,
                sync.duration_s,
                node_id=sync.node_id,
            )
        if plan.duplication is not None:
            window(
                "duplication",
                plan.duplication.start_s,
                plan.duplication.duration_s,
                probability=plan.duplication.probability,
            )
        if plan.delay is not None:
            window(
                "delay",
                plan.delay.start_s,
                plan.delay.duration_s,
                probability=plan.delay.probability,
            )

    def _crash(self, network: "SensorNetwork", outage: Outage) -> None:
        crash = outage.crash
        node = network.nodes.get(crash.node_id)
        if node is None or not node.alive:
            return
        node.crash()
        self.stats.node_crashes += 1
        if self.tracer is not None:
            self.tracer.emit(
                CAT_FAULT,
                "node_crash",
                sim_time_s=network.sim.now,
                node_id=crash.node_id,
                reboot_after_s=crash.reboot_after_s,
            )
        # Scheduled now, after the feeds, so a feed at the reboot
        # instant still finds the node down; ``end_s`` is this crash's
        # time plus its ``reboot_after_s`` bit for bit when the outage
        # is one entry.
        if math.isfinite(outage.end_s):
            network.sim.schedule_at(
                outage.end_s, self._reboot, network, crash.node_id
            )

    def _reboot(self, network: "SensorNetwork", node_id: int) -> None:
        node = network.nodes.get(node_id)
        if node is None or node.alive:
            return
        node.reboot()
        self.stats.node_reboots += 1
        if self.tracer is not None:
            self.tracer.emit(
                CAT_FAULT,
                "node_reboot",
                sim_time_s=network.sim.now,
                node_id=node_id,
            )

    def _drain(self, network: "SensorNetwork", drain: BatteryDrain) -> None:
        node = network.nodes.get(drain.node_id)
        if node is None or node.battery is None:
            return
        node.battery.accelerate_drain(drain.factor)
        self.stats.battery_drains += 1
        if self.tracer is not None:
            self.tracer.emit(
                CAT_FAULT,
                "battery_drain",
                sim_time_s=network.sim.now,
                node_id=drain.node_id,
                factor=drain.factor,
            )

    # ------------------------------------------------------------------
    # Clock-sync fault hook
    # ------------------------------------------------------------------
    def sync_suppressed(self, node_id: int, t: float) -> bool:
        """Consult (and count) resync suppression for one node."""
        if self.plan.sync_suppressed(node_id, t):
            self.stats.resyncs_suppressed += 1
            return True
        return False

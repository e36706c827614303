"""Tests for compiling a fault plan against a live network."""

from __future__ import annotations

import numpy as np

from repro.detection.cluster import TemporaryClusterConfig
from repro.detection.node_detector import NodeDetectorConfig
from repro.detection.sid import SIDNode, SIDNodeConfig
from repro.detection.sink import Sink
from repro.faults.injector import FaultInjector
from repro.faults.plan import (
    BatteryDrain,
    BurstLoss,
    ClockSyncFailure,
    FaultPlan,
    NodeCrash,
    SensorFault,
    SensorFaultKind,
)
from repro.network.channel import Channel, ChannelConfig
from repro.network.nodeproc import SensorNetwork
from repro.sensors.accelerometer import Accelerometer
from repro.sensors.battery import Battery
from repro.types import Position


def _network(n=4, spacing=25.0, seed=0, batteries=False):
    positions = {i: Position(i * spacing, 0.0) for i in range(n)}
    net = SensorNetwork(
        positions=positions,
        sink_id=n,
        sink_position=Position(n * spacing, 0.0),
        sink=Sink(),
        channel=Channel(ChannelConfig(shadowing_sigma_db=0.0), seed=seed),
        seed=seed,
    )
    cfg = SIDNodeConfig(
        detector=NodeDetectorConfig(
            m=2.0, af_threshold=0.3, window_s=2.0, init_windows=2
        ),
        cluster=TemporaryClusterConfig(
            collection_timeout_s=40.0,
            quiet_timeout_s=20.0,
            min_reports=2,
            min_rows=1,
        ),
    )
    for i in range(n):
        net.add_node(
            SIDNode(i, positions[i], cfg, row=0, column=i),
            battery=Battery(100.0) if batteries else None,
        )
    return net


class TestInactivePlan:
    def test_none_plan_is_inactive(self):
        injector = FaultInjector(None)
        assert not injector.active
        assert injector.plan == FaultPlan.none()

    def test_install_is_a_noop(self):
        net = _network()
        injector = FaultInjector(FaultPlan.none())
        pending_before = net.sim.n_pending
        injector.install(net)
        assert net.sim.n_pending == pending_before
        assert net.delivery_faults is None

    def test_wrap_channel_passthrough(self):
        channel = Channel(seed=0)
        injector = FaultInjector(FaultPlan.none())
        assert injector.wrap_channel(channel) is channel

    def test_sensor_wrapper_none_for_healthy_node(self):
        plan = FaultPlan(
            sensor_faults=(
                SensorFault(7, SensorFaultKind.STUCK_AT, 0.0),
            )
        )
        injector = FaultInjector(plan)
        device = Accelerometer(seed=0)
        z = device.read_axis(np.full(100, 9.80665), 2)
        max_counts = device.spec.max_counts
        assert injector.corrupt_counts(3, z, 0.0, 50.0, max_counts) is z
        assert injector.corrupt_counts(7, z, 0.0, 50.0, max_counts) is not z


class TestCrashAndReboot:
    def test_crash_takes_node_down_at_time(self):
        net = _network()
        plan = FaultPlan(node_crashes=(NodeCrash(1, at_s=5.0),))
        injector = FaultInjector(plan)
        injector.install(net)
        net.sim.run(until=4.0)
        assert net.nodes[1].alive
        net.sim.run(until=6.0)
        assert not net.nodes[1].alive
        assert injector.stats.node_crashes == 1

    def test_reboot_restores_node(self):
        net = _network()
        plan = FaultPlan(
            node_crashes=(NodeCrash(1, at_s=5.0, reboot_after_s=10.0),)
        )
        injector = FaultInjector(plan)
        injector.install(net)
        net.sim.run(until=10.0)
        assert not net.nodes[1].alive
        net.sim.run(until=20.0)
        assert net.nodes[1].alive
        assert injector.stats.node_reboots == 1

    def test_overlapping_entries_reboot_at_the_last_ones_end(self):
        net = _network()
        # Outages [10, 25] and [20, 35] on one node: down until 35 s.
        plan = FaultPlan.rolling_crashes(
            [1, 1], first_at_s=10.0, interval_s=10.0, downtime_s=15.0
        )
        injector = FaultInjector(plan)
        injector.install(net)
        net.sim.run(until=34.0)
        assert not net.nodes[1].alive
        net.sim.run(until=36.0)
        assert net.nodes[1].alive
        assert injector.stats.node_crashes == 1
        assert injector.stats.node_reboots == 1

    def test_crashed_node_ignores_windows_and_frames(self):
        net = _network()
        plan = FaultPlan(node_crashes=(NodeCrash(0, at_s=0.0),))
        injector = FaultInjector(plan)
        injector.install(net)
        rng = np.random.default_rng(0)
        for k in range(4):
            w = rng.uniform(0.0, 1.0, 100) + (10.0 if k >= 2 else 0.0)
            net.sim.schedule_at(
                2.0 * k + 2.0, net.nodes[0].feed_window, w, 2.0 * k
            )
        net.sim.run(until=30.0)
        assert net.nodes[0].sid.state.value == "initializing"
        assert net.mac.stats.transmissions == 0

    def test_unknown_node_crash_ignored(self):
        net = _network()
        plan = FaultPlan(node_crashes=(NodeCrash(99, at_s=1.0),))
        injector = FaultInjector(plan)
        injector.install(net)
        net.sim.run()
        assert injector.stats.node_crashes == 0


class TestBatteryDrain:
    def test_drain_accelerates_consumption(self):
        net = _network(batteries=True)
        plan = FaultPlan(
            battery_drains=(BatteryDrain(0, at_s=1.0, factor=5.0),)
        )
        injector = FaultInjector(plan)
        injector.install(net)
        net.sim.run()
        assert injector.stats.battery_drains == 1
        assert net.nodes[0].battery.drain_multiplier == 5.0
        assert net.nodes[1].battery.drain_multiplier == 1.0

    def test_drain_without_battery_is_ignored(self):
        net = _network(batteries=False)
        plan = FaultPlan(
            battery_drains=(BatteryDrain(0, at_s=1.0, factor=5.0),)
        )
        injector = FaultInjector(plan)
        injector.install(net)
        net.sim.run()
        assert injector.stats.battery_drains == 0


class TestChannelAndSyncHooks:
    def test_install_binds_channel_clock(self):
        plan = FaultPlan(
            burst_loss=BurstLoss(
                start_s=5.0,
                p_good_to_bad=1.0,
                p_bad_to_good=0.0,
                bad_loss_rate=1.0,
            )
        )
        injector = FaultInjector(plan)
        channel = injector.wrap_channel(
            Channel(ChannelConfig(shadowing_sigma_db=0.0), seed=0)
        )
        positions = {i: Position(i * 25.0, 0.0) for i in range(2)}
        net = SensorNetwork(
            positions=positions,
            sink_id=2,
            sink_position=Position(50.0, 0.0),
            sink=Sink(),
            channel=channel,
            seed=0,
        )
        injector.install(net)
        a, b = Position(0, 0), Position(10, 0)
        # Before the burst window the decorated channel delivers...
        assert channel.attempt_delivery(0, 1, a, b)
        # ...after sim time passes the window start, the burst kills all.
        net.sim.schedule_at(10.0, lambda: None)
        net.sim.run()
        assert not channel.attempt_delivery(0, 1, a, b)
        assert injector.stats.frames_burst_lost == 1

    def test_sync_suppression_counted(self):
        plan = FaultPlan(sync_failures=(ClockSyncFailure(2),))
        injector = FaultInjector(plan)
        assert injector.sync_suppressed(2, 10.0)
        assert not injector.sync_suppressed(1, 10.0)
        assert injector.stats.resyncs_suppressed == 1

    def test_same_plan_seed_same_fault_entropy(self):
        plan = FaultPlan(
            sensor_faults=(
                SensorFault(
                    0,
                    SensorFaultKind.SPIKE,
                    0.0,
                    duration_s=50.0,
                    magnitude=100.0,
                ),
            ),
            seed=42,
        )
        device = Accelerometer(seed=0)
        z = device.read_axis(np.zeros(2500), 2)
        outs = [
            FaultInjector(plan).corrupt_counts(
                0, z, 0.0, 50.0, device.spec.max_counts
            )
            for _ in range(2)
        ]
        assert not np.array_equal(outs[0], z)
        np.testing.assert_array_equal(outs[0], outs[1])

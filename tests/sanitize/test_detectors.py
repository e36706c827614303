"""Detector unit tests: each sanitizer finding kind, provoked directly.

These drive a bare :class:`Simulator` + :class:`Sanitizer` (no network
stack) so each detector's firing condition — and each *sanctioning*
rule that keeps it quiet — is pinned in isolation.
"""

from __future__ import annotations

import json

import pytest

from repro.network.simulator import SimulationError, Simulator
from repro.rng import make_rng
from repro.sanitize import Sanitizer
from repro.sanitize.report import (
    KIND_BILLING,
    KIND_ORDER_RACE,
    KIND_RNG_PROVENANCE,
)
from repro.sensors.battery import Battery

CELL = ("x", 1)


def kinds(report):
    return [f.kind for f in report.findings]


class TestOrderRaceDetector:
    @staticmethod
    def _write(san, cell=CELL):
        san.record_write(cell)

    @staticmethod
    def _read(san, cell=CELL):
        san.record_read(cell)

    @staticmethod
    def _spawn(sim, san, t, fn, *args):
        sim.schedule_at(t, fn, san, *args)

    def test_unrelated_runtime_writers_race(self):
        sim, san = Simulator(), Sanitizer()
        sim.attach_probe(san)
        # Two install-time parents each spawn a runtime writer at t=10:
        # the writers' seq order is an accident of parent order.
        sim.schedule_at(1.0, self._spawn, sim, san, 10.0, self._write)
        sim.schedule_at(2.0, self._spawn, sim, san, 10.0, self._write)
        sim.run()
        report = san.report()
        assert kinds(report) == [KIND_ORDER_RACE]
        msg = report.findings[0].format()
        assert "same timestamp" in msg
        assert str(CELL) in msg  # names the contested cell
        assert report.findings[0].time_s == 10.0

    def test_write_read_conflict_races(self):
        sim, san = Simulator(), Sanitizer()
        sim.attach_probe(san)
        sim.schedule_at(1.0, self._spawn, sim, san, 10.0, self._write)
        sim.schedule_at(2.0, self._spawn, sim, san, 10.0, self._read)
        sim.run()
        assert kinds(san.report()) == [KIND_ORDER_RACE]

    def test_read_read_pair_is_not_a_conflict(self):
        sim, san = Simulator(), Sanitizer()
        sim.attach_probe(san)
        sim.schedule_at(1.0, self._spawn, sim, san, 10.0, self._read)
        sim.schedule_at(2.0, self._spawn, sim, san, 10.0, self._read)
        sim.run()
        assert san.report().ok

    def test_disjoint_cells_do_not_race(self):
        sim, san = Simulator(), Sanitizer()
        sim.attach_probe(san)
        sim.schedule_at(
            1.0, self._spawn, sim, san, 10.0, self._write, ("x", 1)
        )
        sim.schedule_at(
            2.0, self._spawn, sim, san, 10.0, self._write, ("x", 2)
        )
        sim.run()
        assert san.report().ok

    def test_different_timestamps_do_not_race(self):
        sim, san = Simulator(), Sanitizer()
        sim.attach_probe(san)
        sim.schedule_at(1.0, self._spawn, sim, san, 10.0, self._write)
        sim.schedule_at(2.0, self._spawn, sim, san, 11.0, self._write)
        sim.run()
        assert san.report().ok

    def test_siblings_are_sanctioned(self):
        def spawn_two(sim, san):
            sim.schedule_at(10.0, self._write, san)
            sim.schedule_at(10.0, self._write, san)

        sim, san = Simulator(), Sanitizer()
        sim.attach_probe(san)
        # One parent spawns both writers: the parent's program order
        # pins their seqs, so the pair is deterministic by design.
        sim.schedule_at(1.0, spawn_two, sim, san)
        sim.run()
        assert san.report().ok

    def test_install_created_events_are_sanctioned(self):
        sim, san = Simulator(), Sanitizer()
        sim.attach_probe(san)
        # Install-time seqs follow deterministic setup order, so a
        # conflicting install/runtime pair is structurally ordered.
        sim.schedule_at(10.0, self._write, san)
        sim.schedule_at(1.0, self._spawn, sim, san, 10.0, self._write)
        sim.run()
        assert san.report().ok

    def test_scheduling_ancestor_is_sanctioned(self):
        def parent(san, sim):
            san.record_write(CELL)
            sim.schedule_at(sim.now, self._write, san)

        sim, san = Simulator(), Sanitizer()
        sim.attach_probe(san)
        # Runtime parent writes, then spawns a same-time child that
        # also writes: the child cannot run before its creator.
        sim.schedule_at(1.0, self._spawn, sim, san, 10.0, parent, sim)
        sim.run()
        assert san.report().ok

    def test_race_survives_pending_bucket_at_report_time(self):
        sim, san = Simulator(), Sanitizer()
        sim.attach_probe(san)
        # The racing pair is the *last* bucket: report() must flush it.
        sim.schedule_at(1.0, self._spawn, sim, san, 10.0, self._write)
        sim.schedule_at(2.0, self._spawn, sim, san, 10.0, self._write)
        sim.run(until=10.0)
        assert kinds(san.report()) == [KIND_ORDER_RACE]


class TestRngProvenanceDetector:
    def test_foreign_draw_fires_once_per_caller(self):
        san = Sanitizer()
        gen = san.track_rng(
            make_rng(7), "mac", owners=("repro.network.mac",)
        )
        gen.random()
        gen.random()  # same (stream, caller): deduplicated
        report = san.report()
        assert kinds(report) == [KIND_RNG_PROVENANCE]
        msg = report.findings[0].format()
        assert "'mac'" in msg
        assert __name__ in msg  # names the offending module
        assert "derive_rng" in msg  # actionable remediation
        assert report.rng_draws["mac"] == 2

    def test_owner_draw_is_clean(self):
        san = Sanitizer()
        gen = san.track_rng(make_rng(7), "mac", owners=(__name__,))
        gen.random()
        gen.integers(0, 10)
        report = san.report()
        assert report.ok
        assert report.rng_draws["mac"] == 2

    def test_tracked_draws_are_bit_identical(self):
        san = Sanitizer()
        tracked = san.track_rng(make_rng(7), "s", owners=(__name__,))
        plain = make_rng(7)
        assert [tracked.random() for _ in range(5)] == [
            plain.random() for _ in range(5)
        ]
        assert list(tracked.integers(0, 100, size=8)) == list(
            plain.integers(0, 100, size=8)
        )


class TestBillingDetector:
    def test_balanced_billing_is_clean(self):
        san = Sanitizer()
        battery = Battery(capacity_j=100.0)
        san.track_battery(0, battery)
        san.expect_cpu_billing(0, 3, 0.5)
        for _ in range(3):
            assert battery.draw(0.5, "cpu")
        report = san.report()
        assert report.ok
        assert report.billing[0] == {"cpu": 3}

    def test_double_billed_window_is_an_overdraw(self):
        san = Sanitizer()
        battery = Battery(capacity_j=100.0)
        san.track_battery(0, battery)
        san.expect_cpu_billing(0, 2, 0.5)
        for _ in range(3):  # one window billed twice
            battery.draw(0.5, "cpu")
        report = san.report()
        assert kinds(report) == [KIND_BILLING]
        msg = report.findings[0].format()
        assert "billed 3" in msg
        assert "only 2 were scheduled" in msg

    def test_wrong_amount_is_a_mismatch(self):
        san = Sanitizer()
        battery = Battery(capacity_j=100.0)
        san.track_battery(0, battery)
        san.expect_cpu_billing(0, 2, 0.5)
        battery.draw(0.5, "cpu")
        battery.draw(0.25, "cpu")  # mis-batched catch-up amount
        report = san.report()
        assert kinds(report) == [KIND_BILLING]
        assert "wrong amount" in report.findings[0].format()

    def test_strict_underdraw_is_a_finding(self):
        san = Sanitizer()
        battery = Battery(capacity_j=100.0)
        san.track_battery(0, battery)
        san.expect_cpu_billing(0, 3, 0.5)
        battery.draw(0.5, "cpu")
        battery.draw(0.5, "cpu")
        report = san.report()
        assert kinds(report) == [KIND_BILLING]
        assert "unbilled" in report.findings[0].format()

    def test_depleted_underdraw_is_sanctioned(self):
        # Depletion is the one excuse: a dead battery skips the rest.
        san = Sanitizer()
        battery = Battery(capacity_j=1.0)
        san.track_battery(0, battery)
        san.expect_cpu_billing(0, 3, 0.5)
        battery.draw(0.5, "cpu")
        battery.draw(0.5, "cpu")
        assert battery.depleted
        assert san.report().ok

    def test_out_of_band_drain_breaks_ledger_continuity(self):
        san = Sanitizer()
        battery = Battery(capacity_j=100.0)
        san.track_battery(0, battery)
        battery.draw(0.5, "radio_tx")
        battery._remaining -= 1.0  # energy moved outside draw()
        battery.draw(0.5, "radio_tx")
        report = san.report()
        assert kinds(report) == [KIND_BILLING]
        assert "outside" in report.findings[0].format()

    def test_unrelated_categories_do_not_reconcile_as_cpu(self):
        san = Sanitizer()
        battery = Battery(capacity_j=100.0)
        san.track_battery(0, battery)
        san.expect_cpu_billing(0, 1, 0.5)
        battery.draw(0.5, "cpu")
        for _ in range(4):
            battery.draw(0.1, "radio_rx")
        report = san.report()
        assert report.ok
        assert report.billing[0] == {"cpu": 1, "radio_rx": 4}

    def test_rejected_draw_is_not_billed(self):
        san = Sanitizer()
        battery = Battery(capacity_j=1.0)
        san.track_battery(0, battery)
        assert battery.draw(1.0, "cpu")
        assert not battery.draw(1.0, "cpu")  # depleted: rejected
        assert san.report().billing[0] == {"cpu": 1}


class TestProbeAndReportPlumbing:
    def test_double_attach_is_rejected(self):
        sim = Simulator()
        sim.attach_probe(Sanitizer())
        with pytest.raises(SimulationError):
            sim.attach_probe(Sanitizer())

    def test_event_counts_distinguish_recorded(self):
        sim, san = Simulator(), Sanitizer()
        sim.attach_probe(san)
        sim.schedule_at(1.0, lambda: None)  # executes, touches nothing
        sim.schedule_at(2.0, san.record_write, CELL)
        sim.run()
        report = san.report()
        assert report.events_executed == 2
        assert report.events_recorded == 1

    def test_report_is_idempotent(self):
        san = Sanitizer()
        battery = Battery(capacity_j=100.0)
        san.track_battery(0, battery)
        san.expect_cpu_billing(0, 2, 0.5)
        battery.draw(0.5, "cpu")
        first = san.report()
        second = san.report()  # must not re-reconcile and double-report
        assert len(first.findings) == len(second.findings) == 1

    def test_clean_report_format_and_dict(self, tmp_path):
        san = Sanitizer()
        report = san.report()
        assert report.ok
        assert "CLEAN" in report.format()
        path = tmp_path / "report.json"
        report.write_json(path)
        doc = json.loads(path.read_text())
        assert doc["ok"] is True
        assert doc["findings"] == []

    def test_dirty_report_serialises_findings(self, tmp_path):
        san = Sanitizer()
        gen = san.track_rng(make_rng(3), "s", owners=("nobody",))
        gen.random()
        report = san.report()
        assert not report.ok
        assert "1 finding(s)" in report.format()
        assert report.counts_by_kind() == {KIND_RNG_PROVENANCE: 1}
        doc = report.to_dict()
        assert doc["ok"] is False
        assert doc["findings"][0]["kind"] == KIND_RNG_PROVENANCE
        path = tmp_path / "report.json"
        report.write_json(path)
        assert json.loads(path.read_text()) == doc

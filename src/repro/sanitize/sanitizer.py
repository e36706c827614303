"""Runtime sanitizer for the discrete-event simulator.

TSan in spirit, for a DES (DESIGN.md §15): an opt-in probe on
:class:`repro.network.simulator.Simulator` records, per executed
event, a shadow access set — which node processes, batteries, RNG
streams, the shared radio medium, and the sink were read or written —
plus the scheduling parentage of every event.  Three detectors consume
the records:

order-race
    Two events at the same timestamp whose access sets conflict
    (write/write or read/write overlap) and whose relative order is
    *not* structurally pinned.  The ``(time, seq)`` tie-break always
    produces *some* deterministic order, but when both events were
    scheduled at runtime by unrelated parents, their ``seq`` order is
    an accident of scheduling history — a refactor that reorders the
    parents silently reorders the children.  Pairs are sanctioned
    (not races) when: both were scheduled at install time (their seqs
    follow deterministic setup order); exactly one is install-created
    (install seqs are always lower, so the order is structural); one
    is a scheduling ancestor of the other; or both share the same
    runtime parent (program order within the parent's callback).

rng-provenance
    Tracked streams (:class:`repro.sanitize.rng.TrackedGenerator`)
    report the module of every draw call site; a draw from a module
    outside the stream's declared owner set breaks per-subsystem seed
    isolation (DESIGN.md §11).

billing
    Battery draws are wrapped to count per-category billings, check
    the energy ledger for bit-exact continuity between draws (any
    out-of-band ``_remaining`` mutation is flagged), and reconcile
    CPU draws against declared intents — the runner declares how many
    window billings each node owes and at what per-window amount, so
    a double-billed or mis-batched ``catch_up_quiet_windows`` shows up
    as an overdraw or amount mismatch.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Iterable, Optional

from repro.sanitize.access import Cell, EventRecord
from repro.sanitize.report import (
    KIND_BILLING,
    KIND_ORDER_RACE,
    KIND_RNG_PROVENANCE,
    SanitizerFinding,
    SanitizerReport,
)
from repro.sanitize.rng import TrackedGenerator

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np

    from repro.network.nodeproc import NetworkNode, SensorNetwork
    from repro.network.simulator import Event, Simulator
    from repro.sensors.battery import Battery

#: Findings kept verbatim; the rest are counted as truncated.
_MAX_FINDINGS = 64


class Sanitizer:
    """Recording probe + detectors for one simulated scenario.

    Typical use::

        san = Sanitizer()
        run_network_scenario(..., sanitizer=san)
        report = san.report()
        assert report.ok, report.format()
    """

    def __init__(self) -> None:
        # --- event recording -----------------------------------------
        self._cur_seq: Optional[int] = None
        self._cur_time = 0.0
        self._cur_label = ""
        self._current: Optional[EventRecord] = None
        #: seq -> (parent_seq, parent_time) for runtime-created events.
        self._origin: dict[int, tuple[int, float]] = {}
        self._bucket: list[EventRecord] = []
        self._bucket_time = 0.0
        self._events_executed = 0
        self._events_recorded = 0
        # --- findings -------------------------------------------------
        self._findings: list[SanitizerFinding] = []
        self._truncated = 0
        self._seen_provenance: set[tuple[str, str]] = set()
        # --- rng ------------------------------------------------------
        self._rng_owners: dict[str, frozenset[str]] = {}
        self._rng_draws: dict[str, int] = {}
        # --- billing --------------------------------------------------
        self._batteries: dict[int, "Battery"] = {}
        self._billing_counts: dict[int, dict[str, int]] = {}
        self._cpu_draws: dict[int, list[float]] = {}
        self._expected_cpu: dict[int, tuple[int, float]] = {}
        self._last_remaining: dict[int, float] = {}
        self._in_draw: set[int] = set()
        self._sim: Optional["Simulator"] = None
        self._finalized = False

    # ------------------------------------------------------------------
    # Probe protocol (called by Simulator)
    # ------------------------------------------------------------------
    def on_scheduled(self, event: "Event") -> None:
        """A new event entered the queue; remember who created it."""
        if self._cur_seq is not None:
            self._origin[event.seq] = (self._cur_seq, self._cur_time)

    def on_event_begin(self, time: float, event: "Event") -> None:
        if self._bucket and time != self._bucket_time:
            self._flush_bucket()
        self._events_executed += 1
        self._cur_seq = event.seq
        self._cur_time = time
        fn = event.fn
        self._cur_label = getattr(fn, "__qualname__", None) or repr(fn)
        self._current = None

    def on_event_end(self, event: "Event") -> None:
        rec = self._current
        if rec is not None:
            if not self._bucket:
                self._bucket_time = rec.time
            self._bucket.append(rec)
            self._events_recorded += 1
            self._current = None
        self._cur_seq = None

    # ------------------------------------------------------------------
    # Access recording (called by instrumentation wrappers)
    # ------------------------------------------------------------------
    def _record(self) -> Optional[EventRecord]:
        if self._cur_seq is None:
            # Access outside any event (install-time setup): nothing
            # to race against, so nothing to record.
            return None
        rec = self._current
        if rec is None:
            rec = EventRecord(
                self._cur_seq,
                self._cur_time,
                self._cur_label,
                self._origin.get(self._cur_seq),
            )
            self._current = rec
        return rec

    def record_read(self, cell: Cell) -> None:
        """Note that the current event read ``cell``."""
        rec = self._record()
        if rec is not None:
            rec.reads.add(cell)

    def record_write(self, cell: Cell) -> None:
        """Note that the current event wrote ``cell``."""
        rec = self._record()
        if rec is not None:
            rec.writes.add(cell)

    # ------------------------------------------------------------------
    # Order-race detector
    # ------------------------------------------------------------------
    def _flush_bucket(self) -> None:
        bucket = self._bucket
        self._bucket = []
        if len(bucket) < 2:
            return
        runtime = [rec for rec in bucket if rec.origin is not None]
        if len(runtime) < 2:
            return
        t = bucket[0].time
        for i, a in enumerate(runtime):
            for b in runtime[i + 1:]:
                if a.origin[0] == b.origin[0]:  # type: ignore[index]
                    continue  # siblings: parent's program order pins them
                cells = a.conflicts_with(b)
                if not cells:
                    continue
                if self._is_ancestor(a.seq, b) or self._is_ancestor(
                    b.seq, a
                ):
                    continue
                self._add_finding(
                    KIND_ORDER_RACE,
                    f"events #{a.seq} ({a.label}) and #{b.seq} "
                    f"({b.label}) execute at the same timestamp and "
                    f"touch {sorted(cells)}; both were scheduled at "
                    "runtime by unrelated parents, so their order is "
                    "an accident of scheduling history — pin it by "
                    "scheduling one from the other, offsetting their "
                    "times, or moving creation to install time",
                    time_s=t,
                    details={
                        "seq_a": a.seq,
                        "seq_b": b.seq,
                        "label_a": a.label,
                        "label_b": b.label,
                        "cells": ", ".join(map(str, sorted(cells))),
                    },
                )

    def _is_ancestor(self, seq: int, rec: EventRecord) -> bool:
        """True if event ``seq`` is a scheduling ancestor of ``rec``."""
        t = rec.time
        cur = rec.seq
        while True:
            origin = self._origin.get(cur)
            if origin is None:
                return False
            parent_seq, parent_time = origin
            if parent_seq == seq:
                return True
            if parent_time < t:
                # Ancestors that executed strictly earlier cannot be
                # members of this same-time bucket; stop walking.
                return False
            cur = parent_seq

    # ------------------------------------------------------------------
    # RNG provenance
    # ------------------------------------------------------------------
    def track_rng(
        self,
        gen: "np.random.Generator",
        stream: str,
        owners: Iterable[str],
    ) -> TrackedGenerator:
        """Wrap ``gen`` so draws report provenance for ``stream``.

        The tracked stream shares ``gen``'s bit generator, so draw
        values are bit-identical.  ``repro.rng`` is always an allowed
        caller: ``derive_rng`` legitimately draws from parent streams.
        """
        self._rng_owners[stream] = frozenset(owners) | {"repro.rng"}
        self._rng_draws.setdefault(stream, 0)
        return TrackedGenerator(gen.bit_generator, self, stream)

    def _note_rng_draw(
        self, stream: str, method: str, caller: str
    ) -> None:
        self._rng_draws[stream] = self._rng_draws.get(stream, 0) + 1
        self.record_write(("rng", stream))
        owners = self._rng_owners.get(stream)
        if owners is None or caller in owners:
            return
        if (stream, caller) in self._seen_provenance:
            return
        self._seen_provenance.add((stream, caller))
        self._add_finding(
            KIND_RNG_PROVENANCE,
            f"stream '{stream}' drawn from module '{caller}' via "
            f".{method}(); owners are {sorted(owners)} — borrowing a "
            "foreign stream couples the subsystems' draw sequences; "
            "derive a child stream with repro.rng.derive_rng/spawn_rng "
            "instead",
            time_s=self._sim.now if self._sim is not None else None,
            details={"stream": stream, "caller": caller, "method": method},
        )

    # ------------------------------------------------------------------
    # Billing ledger
    # ------------------------------------------------------------------
    def track_battery(self, node_id: int, battery: "Battery") -> None:
        """Audit every ``Battery.draw`` on ``battery``."""
        if node_id in self._batteries:
            return
        self._batteries[node_id] = battery
        counts = self._billing_counts.setdefault(node_id, {})
        cpu_draws = self._cpu_draws.setdefault(node_id, [])
        orig = battery.draw

        def draw(joules: float, category: str) -> bool:
            reentrant = node_id in self._in_draw
            if not reentrant:
                self._check_ledger_continuity(node_id, battery)
                self._in_draw.add(node_id)
            try:
                ok = orig(joules, category)
            finally:
                if not reentrant:
                    self._in_draw.discard(node_id)
                    self._last_remaining[node_id] = battery._remaining
            if ok:
                counts[category] = counts.get(category, 0) + 1
                self.record_write(("battery", node_id))
                if category == "cpu":
                    cpu_draws.append(joules)
            return ok

        draw.__name__ = "draw"
        draw.__qualname__ = "Battery.draw[sanitized]"
        battery.draw = draw  # type: ignore[method-assign]

    def _check_ledger_continuity(
        self, node_id: int, battery: "Battery"
    ) -> None:
        last = self._last_remaining.get(node_id)
        # Bit-exact on purpose: any drift here means energy moved
        # outside draw(), which is precisely the bug being hunted.
        if last is not None and battery._remaining != last:
            self._add_finding(
                KIND_BILLING,
                f"node {node_id} battery ledger changed outside "
                f"Battery.draw(): remaining went {last!r} -> "
                f"{battery._remaining!r} between billed draws; all "
                "energy accounting must flow through draw()",
                time_s=self._sim.now if self._sim is not None else None,
                details={"node_id": node_id},
            )
            self._last_remaining[node_id] = battery._remaining

    def expect_cpu_billing(
        self, node_id: int, n_windows: int, joules_per_window: float
    ) -> None:
        """Declare the CPU billing intent for one node.

        The runner owes ``n_windows`` CPU draws of exactly
        ``joules_per_window`` each (batched catch-up billing included;
        planned crash windows are never scheduled, so never owed).
        More draws, fewer draws or draws of a different amount are
        findings; only battery depletion excuses missing draws.
        """
        self._expected_cpu[node_id] = (int(n_windows), float(joules_per_window))

    def _reconcile_billing(self) -> None:
        for node_id in sorted(self._expected_cpu):
            expected_n, per_window = self._expected_cpu[node_id]
            draws = self._cpu_draws.get(node_id, [])
            if len(draws) > expected_n:
                self._add_finding(
                    KIND_BILLING,
                    f"node {node_id} billed {len(draws)} CPU window "
                    f"draws but only {expected_n} were scheduled — a "
                    "window was billed more than once (check batched "
                    "catch_up_quiet_windows accounting)",
                    details={
                        "node_id": node_id,
                        "billed": len(draws),
                        "expected": expected_n,
                    },
                )
            mismatched = [d for d in draws if d != per_window]
            if mismatched:
                self._add_finding(
                    KIND_BILLING,
                    f"node {node_id} has {len(mismatched)} CPU draw(s) "
                    f"of the wrong amount (expected {per_window!r} J "
                    f"per window, saw e.g. {mismatched[0]!r} J) — "
                    "batched billing must replicate the per-window "
                    "draw_cpu amount bit-exactly",
                    details={
                        "node_id": node_id,
                        "n_mismatched": len(mismatched),
                    },
                )
            battery = self._batteries.get(node_id)
            depleted = battery is not None and battery.depleted
            if not depleted and len(draws) < expected_n:
                self._add_finding(
                    KIND_BILLING,
                    f"node {node_id} billed only {len(draws)} of "
                    f"{expected_n} scheduled CPU window draws with its "
                    "battery not depleted — windows went unbilled "
                    "(feed elision dropped a catch-up, or a live "
                    "window met a dead node?)",
                    details={
                        "node_id": node_id,
                        "billed": len(draws),
                        "expected": expected_n,
                    },
                )
        # Final ledger continuity sweep.
        for node_id, battery in sorted(self._batteries.items()):
            self._check_ledger_continuity(node_id, battery)

    # ------------------------------------------------------------------
    # Instrumentation plumbing
    # ------------------------------------------------------------------
    def _wrap(
        self,
        obj: Any,
        name: str,
        reads: tuple[Cell, ...] = (),
        writes: tuple[Cell, ...] = (),
    ) -> None:
        orig: Callable[..., Any] = getattr(obj, name)

        def wrapped(*args: Any, **kwargs: Any) -> Any:
            for cell in reads:
                self.record_read(cell)
            for cell in writes:
                self.record_write(cell)
            return orig(*args, **kwargs)

        wrapped.__name__ = getattr(orig, "__name__", name)
        wrapped.__qualname__ = getattr(orig, "__qualname__", name)
        setattr(obj, name, wrapped)

    def attach_network(self, network: "SensorNetwork") -> None:
        """Instrument a network: probe, MAC, channel, sink.

        Call after the network (and any fault decorators) exist but
        before ``sim.run()``; per-node instrumentation is added by
        :meth:`track_node` as nodes join.
        """
        self._sim = network.sim
        network.sim.attach_probe(self)
        mac = network.mac
        mac._rng = self.track_rng(
            mac._rng, "mac", owners=("repro.network.mac",)
        )
        medium = ("mac", "medium")
        self._wrap(mac, "_transmit", reads=(medium,), writes=(medium,))
        channel = network.channel
        inner = getattr(channel, "inner", None)
        if inner is not None:  # fault decorator: audit the base stream
            channel = inner
        channel._rng = self.track_rng(
            channel._rng, "channel", owners=("repro.network.channel",)
        )
        sink_cell: Cell = ("sink", network.sink_node.node_id)
        self._wrap(network.sink_node, "on_frame", writes=(sink_cell,))

    def track_node(self, proc: "NetworkNode") -> None:
        """Instrument one node process (and its battery, if any).

        Must run before the node's feed/tick events are scheduled so
        the scheduled callables resolve to the recording wrappers.
        """
        nid = proc.node_id
        node_cell: Cell = ("node", nid)
        sid_cell: Cell = ("sid", nid)
        for name in (
            "feed_window",
            "feed_outcome",
            "catch_up_quiet_windows",
            "tick",
            "on_frame",
        ):
            self._wrap(
                proc, name, reads=(node_cell,), writes=(sid_cell,)
            )
        for name in ("crash", "reboot"):
            self._wrap(
                proc, name, writes=(node_cell, sid_cell)
            )
        if proc.battery is not None:
            self.track_battery(nid, proc.battery)

    # ------------------------------------------------------------------
    # Findings / report
    # ------------------------------------------------------------------
    def _add_finding(
        self,
        kind: str,
        message: str,
        time_s: Optional[float] = None,
        details: Optional[dict[str, Any]] = None,
    ) -> None:
        if len(self._findings) >= _MAX_FINDINGS:
            self._truncated += 1
            return
        self._findings.append(
            SanitizerFinding(
                kind=kind,
                message=message,
                time_s=time_s,
                details=details or {},
            )
        )

    def report(self) -> SanitizerReport:
        """Flush pending analysis and return the run's report."""
        if not self._finalized:
            self._flush_bucket()
            self._reconcile_billing()
            self._finalized = True
        return SanitizerReport(
            findings=tuple(self._findings),
            events_executed=self._events_executed,
            events_recorded=self._events_recorded,
            rng_draws=dict(self._rng_draws),
            billing={
                nid: dict(cats)
                for nid, cats in self._billing_counts.items()
            },
            truncated=self._truncated,
        )

"""Fleet-vectorized node detection (eqs. 4-8 in lockstep).

:class:`~repro.detection.node_detector.NodeDetector` walks one node's
stream window by window in pure Python; a scenario runner then loops
that walk over every node.  For a fleet sharing one sample grid the two
loops can be swapped: :class:`FleetDetector` advances *all* N nodes
through the Delta-t window walk in lockstep — one outer loop over
windows, with the deviations ``D_i``, the ``D_max = M m'_T`` threshold,
the anomaly frequency ``af`` and the eq.-5 baseline update computed as
``(nodes,)``-shaped vectors per step.  The data-dependent branch (quiet
windows update the baseline, anomalous windows report) becomes a pair
of boolean row masks; the rare report rows drop back to the scalar
formulas so the crossing energy keeps the reference implementation's
exact compacted-sum rounding.

The engine is **bit-identical** to the per-node reference: every
arithmetic step reuses the same IEEE-754 operations in the same order
(row-wise reductions over C-contiguous rows match the per-row scalar
reductions exactly), which the equivalence suite asserts across
configurations and fault-corrupted inputs.

:class:`FleetStream` runs the same walk over chunked input with carried
baseline/init state, so synthesis can feed detection chunk by chunk
with peak memory O(nodes x chunk) instead of O(nodes x duration).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from repro.detection.node_detector import NodeDetectorConfig
from repro.detection.reports import NodeReport
from repro.errors import (
    ConfigurationError,
    InternalError,
    SignalLengthError,
)
from repro.telemetry.events import CAT_DETECTION
from repro.telemetry.tracer import Tracer
from repro.types import Position

if TYPE_CHECKING:
    from repro.scenario.deployment import GridDeployment


@dataclass(frozen=True)
class FleetMember:
    """Identity of one detector row (mirrors NodeDetector's identity)."""

    node_id: int
    position: Position
    row: int = 0
    column: int = 0


class FleetDetector:
    """All nodes' detection state, advanced one window at a time.

    Rows correspond to ``members`` in order.  :meth:`step` consumes one
    ``(nodes, window)`` matrix of preprocessed samples; rows excluded by
    the ``active`` mask are left completely untouched (their baselines
    neither update nor observe the window) — exactly what happens to a
    crashed or sleeping node in the per-node runners.
    """

    def __init__(
        self,
        members: Sequence[FleetMember],
        config: NodeDetectorConfig | None = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        if not members:
            raise ConfigurationError("need at least one fleet member")
        self.members = tuple(members)
        self.config = config if config is not None else NodeDetectorConfig()
        #: Optional telemetry tracer; None keeps step() emission-free.
        self.tracer = tracer
        n = len(self.members)
        self._mean = np.zeros(n)
        self._std = np.zeros(n)
        self._seeded = np.zeros(n, dtype=bool)
        self._init_buffers: list[list[np.ndarray]] = [[] for _ in range(n)]
        #: Last observed report-mask state per row (trace transitions).
        self._last_reporting = np.zeros(n, dtype=bool)

    @classmethod
    def from_deployment(
        cls,
        deployment: GridDeployment,
        config: NodeDetectorConfig | None = None,
    ) -> "FleetDetector":
        """One row per deployed node, in deployment iteration order."""
        return cls(
            [
                FleetMember(
                    node_id=node.node_id,
                    position=node.anchor,
                    row=node.row,
                    column=node.column,
                )
                for node in deployment
            ],
            config,
        )

    @property
    def n_nodes(self) -> int:
        """Number of detector rows."""
        return len(self.members)

    @property
    def seeded(self) -> np.ndarray:
        """Per-row baseline-seeded flags (copy)."""
        return self._seeded.copy()

    def stream(self, t0s: Sequence[float]) -> "FleetStream":
        """A chunked-input driver over this detector's state."""
        return FleetStream(self, t0s)

    # ------------------------------------------------------------------
    # One lockstep window
    # ------------------------------------------------------------------
    def step(
        self,
        windows: np.ndarray,
        t0s: Sequence[float],
        active: np.ndarray | None = None,
    ) -> list[NodeReport | None]:
        """Advance every (active) row through one Delta-t window.

        ``windows`` is ``(nodes, window_samples)``; ``t0s`` gives each
        row's window start time.  Returns one entry per row: the
        window's :class:`NodeReport` or ``None``.
        """
        w = np.asarray(windows, dtype=float)
        n = len(self.members)
        if w.ndim != 2 or w.shape[0] != n:
            raise ConfigurationError(
                f"windows must be ({n}, window), got {w.shape}"
            )
        if w.shape[1] == 0:
            raise SignalLengthError("empty detection window")
        if len(t0s) != n:
            raise ConfigurationError(
                f"need one t0 per row, got {len(t0s)} for {n} rows"
            )
        if active is None:
            act = np.ones(n, dtype=bool)
        else:
            act = np.asarray(active, dtype=bool)
            if act.shape != (n,):
                raise ConfigurationError(
                    f"active mask must be ({n},), got {act.shape}"
                )
        out: list[NodeReport | None] = [None] * n

        # Initialization: buffer windows until each row has enough to
        # seed its eq.-4 statistics (same concatenate-then-stats order
        # as NodeDetector, so the seed values match bit for bit).
        init_rows = np.flatnonzero(act & ~self._seeded)
        for i in init_rows:
            buf = self._init_buffers[i]
            buf.append(np.array(w[i]))
            if len(buf) >= self.config.init_windows:
                full = np.concatenate(buf)
                mean = float(full.mean())
                var = float(np.mean((full - mean) ** 2))
                self._mean[i] = mean
                self._std[i] = np.sqrt(var)
                self._seeded[i] = True
                self._init_buffers[i] = []

        rows = np.flatnonzero(act & self._seeded)
        if init_rows.size:
            # Rows seeded *this* window only buffered it; they start
            # detecting on the next one (NodeDetector returns None from
            # the seeding call).
            rows = np.setdiff1d(rows, init_rows, assume_unique=True)
        if rows.size == 0:
            return out

        std = self._std[rows]
        mean = self._mean[rows]
        if np.any(std < 0):
            raise ConfigurationError("d'_T must be >= 0")
        d_max = self.config.m * mean
        if np.any(d_max < 0):
            raise ConfigurationError("D_max must be >= 0")
        # Eqs. 6-7 for every active row at once.
        w_act = w[rows]
        d = np.abs(w_act - std[:, None])
        mask = d > d_max[:, None]
        counts = np.count_nonzero(mask, axis=1)
        af = counts / w.shape[1]
        reporting = af > self.config.af_threshold

        # Quiet rows: batched eq.-5 baseline update (same op order as
        # AdaptiveBaseline.update, elementwise).
        quiet = ~reporting
        if np.any(quiet):
            q = w_act[quiet]
            m_dt = q.mean(axis=1)
            d_dt = np.sqrt(np.mean((q - m_dt[:, None]) ** 2, axis=1))
            qi = rows[quiet]
            beta1, beta2 = self.config.beta1, self.config.beta2
            self._mean[qi] = beta1 * self._mean[qi] + m_dt * (1.0 - beta1)
            self._std[qi] = beta2 * self._std[qi] + d_dt * (1.0 - beta2)

        # Report rows: scalar per row, replicating the reference's
        # compacted-sum crossing energy (eq. 8) and onset index exactly.
        for j in np.flatnonzero(reporting):
            i = int(rows[j])
            mask_row = mask[j]
            idx = np.flatnonzero(mask_row)
            if idx.size == 0:
                raise InternalError(
                    "anomalous window with no crossing onset (af "
                    f"{float(af[j])} > {self.config.af_threshold} "
                    "but empty mask)"
                )
            onset = int(idx[0])
            n_cross = int(counts[j])
            member = self.members[i]
            out[i] = NodeReport(
                node_id=member.node_id,
                position=member.position,
                onset_time=float(t0s[i]) + onset / self.config.rate_hz,
                energy=float(d[j][mask_row].sum()) / n_cross,
                anomaly_frequency=float(n_cross) / w.shape[1],
                row=member.row,
                column=member.column,
            )
        if self.tracer is not None:
            self._trace_step(rows, reporting, t0s, out)
        return out

    def _trace_step(
        self,
        rows: np.ndarray,
        reporting: np.ndarray,
        t0s: Sequence[float],
        out: list[NodeReport | None],
    ) -> None:
        """Emit the step aggregate, mask transitions, and alarms.

        Quiet steps (nothing reporting, no mask transition) emit no
        event at all: a long idle stretch costs one vectorized compare
        per step, which is what keeps the traced fleet walk inside the
        ISSUE 7 overhead budget.
        """
        tracer = self.tracer
        if tracer is None:
            return
        changed = reporting != self._last_reporting[rows]
        n_reporting = int(np.count_nonzero(reporting))
        if n_reporting == 0 and not changed.any():
            return
        step_t0 = float(min(t0s[int(i)] for i in rows))
        tracer.emit(
            CAT_DETECTION,
            "fleet_step",
            sim_time_s=step_t0,
            n_evaluated=int(rows.size),
            n_reporting=n_reporting,
        )
        # A report exists only on reporting rows, so rows that neither
        # transitioned nor report need no Python-level visit.
        for j in np.flatnonzero(changed | reporting):
            i = int(rows[j])
            if changed[j]:
                now = bool(reporting[j])
                tracer.emit(
                    CAT_DETECTION,
                    "report_onset" if now else "report_clear",
                    sim_time_s=float(t0s[i]),
                    node_id=self.members[i].node_id,
                )
                self._last_reporting[i] = now
            report = out[i]
            if report is not None:
                tracer.emit(
                    CAT_DETECTION,
                    "alarm",
                    sim_time_s=report.onset_time,
                    node_id=report.node_id,
                    energy=report.energy,
                    anomaly_frequency=report.anomaly_frequency,
                )

    # ------------------------------------------------------------------
    # Whole-stream walk
    # ------------------------------------------------------------------
    def process_samples(
        self, a: np.ndarray, t0s: Sequence[float]
    ) -> dict[int, list[NodeReport]]:
        """Walk an ``(nodes, samples)`` preprocessed matrix in lockstep.

        ``t0s`` holds each row's stream start time (rows may have
        different clock offsets).  The whole matrix is one
        :class:`FleetStream` push, so a float matrix is walked without
        a copy.  Returns reports keyed by node id.
        """
        stream = self.stream(t0s)
        stream.push(a)
        return stream.finish()


class FleetStream:
    """Chunked driver for a :class:`FleetDetector`.

    Push ``(nodes, chunk)`` blocks of preprocessed samples as they are
    produced; the stream evaluates every window that becomes complete,
    carries the partial tail across pushes, and on :meth:`finish`
    evaluates the same final right-aligned window the offline walk
    would — the retained tail never exceeds ``window + hop`` columns,
    so peak state is O(nodes x window), not O(nodes x duration).
    """

    def __init__(self, detector: FleetDetector, t0s: Sequence[float]) -> None:
        if len(t0s) != detector.n_nodes:
            raise ConfigurationError(
                f"need one t0 per row, got {len(t0s)} for "
                f"{detector.n_nodes} rows"
            )
        self.detector = detector
        self._t0s = [float(t) for t in t0s]
        #: Retained tail (a private copy), starting at sample ``_base``.
        self._buf = np.empty((detector.n_nodes, 0))
        self._base = 0
        #: Next hop-aligned window start.
        self._next = 0
        self._total = 0
        self._finished = False
        self.reports: dict[int, list[NodeReport]] = {
            m.node_id: [] for m in detector.members
        }

    def _evaluate(self, block: np.ndarray, starts: Sequence[int]) -> None:
        """Step the windows at global samples ``starts``; ``block``
        starts at global sample ``_base``."""
        detector = self.detector
        w = detector.config.window_samples
        rate = detector.config.rate_hz
        rows = [self.reports[m.node_id] for m in detector.members]
        for start in starts:
            lo = start - self._base
            window_t0s = [t0 + start / rate for t0 in self._t0s]
            for row, report in zip(
                rows, detector.step(block[:, lo : lo + w], window_t0s)
            ):
                if report is not None:
                    row.append(report)

    def push(self, chunk: np.ndarray) -> None:
        """Feed one ``(nodes, chunk)`` block; evaluates completed windows.

        With nothing buffered the windows are evaluated straight from
        the pushed block; either way only a copy of the retained tail
        is kept, so the stream never aliases the caller's array.
        """
        if self._finished:
            raise ConfigurationError("stream already finished")
        c = np.asarray(chunk, dtype=float)
        n = self.detector.n_nodes
        if c.ndim != 2 or c.shape[0] != n:
            raise ConfigurationError(
                f"chunk must be ({n}, samples), got {c.shape}"
            )
        if c.shape[1] == 0:
            return
        block = (
            np.concatenate([self._buf, c], axis=1) if self._buf.shape[1] else c
        )
        self._total += c.shape[1]
        cfg = self.detector.config
        w, hop = cfg.window_samples, cfg.hop_samples
        starts = range(self._next, self._total - w + 1, hop)
        self._evaluate(block, starts)
        self._next += len(starts) * hop
        # Drop consumed history.  ``next - hop`` onward must stay: the
        # final right-aligned window can start anywhere in
        # [next - hop, next).
        keep_from = max(self._base, self._next - hop)
        self._buf = block[:, keep_from - self._base :].copy()
        self._base = keep_from

    def finish(self) -> dict[int, list[NodeReport]]:
        """Evaluate the trailing right-aligned window; return reports."""
        if self._finished:
            return self.reports
        w = self.detector.config.window_samples
        hop = self.detector.config.hop_samples
        if self._total < w:
            raise SignalLengthError(
                f"need at least one window ({w} samples), got {self._total}"
            )
        final = self._total - w
        if final != self._next - hop:
            self._evaluate(self._buf, [final])
        self._finished = True
        return self.reports

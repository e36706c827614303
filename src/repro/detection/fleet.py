"""Fleet-vectorized node detection (eqs. 4-8, block-speculative).

:class:`~repro.detection.node_detector.NodeDetector` takes one node's
windows one call at a time, in pure Python.  :class:`FleetDetector`
walks every node at once: :meth:`FleetDetector.step` takes a ``(nodes, k,
window)`` stack of Delta-t windows and advances each row through its
windows in blocks.  Within a block it first assumes every window is
quiet, so the eq.-5 baseline before each window is a short recurrence
over the windows' own eq.-4 statistics, and the deviations ``D_i``, the
``D_max = M m'_T`` threshold and the anomaly frequency ``af`` of the
whole block are array operations.  Each row keeps that result up to
its first report.  The run of reports that follows is evaluated against
the baseline frozen at that report, up to and including the first quiet
window, whose statistics update the baseline; the row then restarts
after it.

The kernel is **bit-identical** to the one-window lockstep walk (the
oracle in ``tests/detection/oracles.py``) and so to ``NodeDetector``:
the recurrence repeats eq. 5's operations in
``NodeDetector.process_window``'s order, window statistics are reductions
over contiguous rows, and each report's crossing energy is the same
compacted sum.

:class:`FleetStream` runs the same walk over chunked input with carried
baseline/init state, so synthesis can feed detection chunk by chunk
with peak memory O(nodes x chunk) instead of O(nodes x duration).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from repro.detection.node_detector import NodeDetectorConfig
from repro.detection.reports import NodeReport
from repro.errors import ConfigurationError, SignalLengthError
from repro.telemetry.events import CAT_DETECTION
from repro.telemetry.tracer import Tracer
from repro.types import Position

if TYPE_CHECKING:
    from repro.scenario.deployment import GridDeployment

#: Byte budget of one block.  An iteration of the kernel gathers
#: ``rows x B x window`` float64 samples, so the block length B shrinks
#: as more rows walk: 100-sample windows give B = 10 at 30 rows and
#: B = 5 at 64.
BLOCK_BYTES = 256 * 1024


def hop_windows(
    a: np.ndarray, first: int, count: int, window: int, hop: int
) -> np.ndarray:
    """``count`` windows of ``a``'s columns, ``hop`` apart from ``first``.

    A read-only ``(rows, count, window)`` view: no sample is copied.
    """
    view = np.lib.stride_tricks.sliding_window_view(a, window, axis=1)
    return view[:, first : first + (count - 1) * hop + 1 : hop]


@dataclass(frozen=True)
class FleetMember:
    """Identity of one detector row (mirrors NodeDetector's identity)."""

    node_id: int
    position: Position
    row: int = 0
    column: int = 0


class FleetDetector:
    """All nodes' detection state, advanced k windows per call.

    Rows correspond to ``members`` in order.  :meth:`step` consumes a
    stack of windows of preprocessed samples; windows excluded by the
    ``active`` mask leave their row completely untouched (its baseline
    neither updates nor observes them) — exactly what happens to a
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
        tracer: Optional[Tracer] = None,
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
            tracer,
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
    # The eqs. 4-8 kernel
    # ------------------------------------------------------------------
    def step(
        self,
        windows: np.ndarray,
        t0s: Sequence[float] | np.ndarray,
        active: np.ndarray | None = None,
    ) -> list[NodeReport | None]:
        """Advance every row through k Delta-t windows.

        ``windows`` is ``(nodes, k, window)``, ``t0s`` the ``(nodes, k)``
        window start times, and ``active`` an optional ``(nodes, k)``
        mask: a dead window (False) neither updates nor reports.  A
        ``(nodes, window)`` matrix with ``(nodes,)`` times and mask is
        one window.  Returns one entry per (window, row), window-major:
        ``out[j * nodes + i]`` is row ``i``'s :class:`NodeReport` for
        window ``j``, or ``None``.
        """
        x = np.asarray(windows, dtype=float)
        n = len(self.members)
        lead = x.shape[:-1]
        if x.ndim == 2:
            x = x[:, None, :]
        if x.ndim != 3 or x.shape[0] != n:
            raise ConfigurationError(
                f"windows must be ({n}, window) or ({n}, k, window), "
                f"got {np.shape(windows)}"
            )
        if x.shape[2] == 0:
            raise SignalLengthError("empty detection window")
        k = x.shape[1]
        t = np.asarray(t0s, dtype=float)
        if t.shape != lead:
            raise ConfigurationError(
                f"need one t0 per row and window {lead}, got {t.shape}"
            )
        t = t.reshape(n, k)
        if active is None:
            act = np.ones((n, k), dtype=bool)
            # Row i's j-th live window, for every row.
            live = np.broadcast_to(np.arange(k), (n, k))
        else:
            act = np.asarray(active, dtype=bool)
            if act.shape != lead:
                raise ConfigurationError(
                    f"active mask must be {lead}, got {act.shape}"
                )
            act = act.reshape(n, k)
            live = np.argsort(~act, axis=1, kind="stable")
        n_live = np.count_nonzero(act, axis=1)
        out: list[NodeReport | None] = [None] * (n * k)

        # Initialization: each unseeded row buffers its first live
        # windows until it can seed its eq.-4 statistics (the same
        # concatenate-then-stats order as NodeDetector, so the seed
        # matches bit for bit).  The seeding window only buffers.
        pos = np.zeros(n, dtype=np.intp)
        init_windows = self.config.init_windows
        for i in np.flatnonzero(~self._seeded & (n_live > 0)):
            buf = self._init_buffers[i]
            take = live[i, : min(init_windows - len(buf), n_live[i])]
            buf.extend(np.array(x[i, j]) for j in take)
            pos[i] = take.size
            if len(buf) >= init_windows:
                full = np.concatenate(buf)
                mean = float(full.mean())
                var = float(np.mean((full - mean) ** 2))
                self._mean[i] = mean
                self._std[i] = np.sqrt(var)
                self._seeded[i] = True
                self._init_buffers[i] = []
        first_detecting = pos.copy()

        while True:
            rows = np.flatnonzero(pos < n_live)
            if rows.size == 0:
                break
            self._block(x, t, live, rows, pos, n_live[rows] - pos[rows], out)

        if self.tracer is not None:
            self._trace_walk(act, first_detecting, t, out)
        return out

    def _block(
        self,
        x: np.ndarray,
        t: np.ndarray,
        live: np.ndarray,
        rows: np.ndarray,
        pos: np.ndarray,
        left: np.ndarray,
        out: list[NodeReport | None],
    ) -> None:
        """One kernel iteration: advance ``rows`` by up to B windows.

        ``pos`` holds each row's next live-window position (advanced
        in place), ``left`` how many live windows ``rows`` have left.
        """
        cfg = self.config
        _, k, width = x.shape
        r = rows.size
        b = int(min(max(BLOCK_BYTES // (r * width * 8), 1), left.max()))
        col = np.arange(b)
        span = np.minimum(left, b)
        valid = col < span[:, None]
        # Window index of each block slot (slots past a row's last live
        # window repeat an index and are masked by ``valid``).
        win = live[rows[:, None], np.minimum(pos[rows, None] + col, k - 1)]
        block = x[rows[:, None], win]
        # Eq. 4 statistics of every window, over contiguous rows.
        m_dt = block.mean(axis=2)
        dev = block - m_dt[..., None]
        dev *= dev
        d_dt = np.sqrt(dev.mean(axis=2))
        del dev

        # Hypothesis Q, every window quiet: base[j] holds each row's
        # (m'_T, d'_T) baseline before slot j, every step eq. 5 in
        # NodeDetector.process_window's operation order.
        beta = np.array([cfg.beta1, cfg.beta2])
        gain = np.stack([m_dt.T, d_dt.T], axis=2) * (1.0 - beta)
        base = np.empty((b + 1, r, 2))
        base[0, :, 0] = self._mean[rows]
        base[0, :, 1] = self._std[rows]
        for j in range(b):
            base[j + 1] = beta * base[j] + gain[j]
        d_max = cfg.m * base[:b, :, 0].T
        d = block - base[:b, :, 1].T[..., None]
        np.abs(d, out=d)
        mask = d > d_max[..., None]
        reporting = (
            np.count_nonzero(mask, axis=2) / width > cfg.af_threshold
        ) & valid
        hit = reporting.any(axis=1)
        # Q holds up to and including each row's first report.
        stop = np.where(hit, reporting.argmax(axis=1), span)
        negative = d_max < 0
        if negative.any() and (negative & valid & (col <= stop[:, None])).any():
            raise ConfigurationError("D_max must be >= 0")
        new = base[stop, np.arange(r)]
        advance = np.where(hit, stop + 1, span)
        for j in np.flatnonzero(hit):
            c = stop[j]
            self._report(rows[j], win[j, c], t, mask[j, c], d[j, c], out)

        # Hypothesis F, the baseline frozen at the report: accept the
        # run of reports after it and the first quiet window, which
        # updates the baseline.
        h = np.flatnonzero(hit & (advance < span))
        if h.size:
            d_f = block[h] - new[h, 1, None, None]
            np.abs(d_f, out=d_f)
            mask_f = d_f > cfg.m * new[h, 0, None, None]
            after = (col > stop[h, None]) & valid[h]
            quiet = after & ~(
                np.count_nonzero(mask_f, axis=2) / width > cfg.af_threshold
            )
            found = quiet.any(axis=1)
            end = np.where(found, quiet.argmax(axis=1), span[h])
            for jj, c in zip(*np.nonzero(after & (col < end[:, None]))):
                j = h[jj]
                self._report(rows[j], win[j, c], t, mask_f[jj, c], d_f[jj, c], out)
            q = h[found]
            new[q] = beta * new[q] + gain[end[found], q]
            advance[h] = end + found
        self._mean[rows] = new[:, 0]
        self._std[rows] = new[:, 1]
        pos[rows] += advance

    def _report(
        self,
        i: int,
        window: int,
        t: np.ndarray,
        mask: np.ndarray,
        d: np.ndarray,
        out: list[NodeReport | None],
    ) -> None:
        """Row ``i``'s report for ``window`` (eq. 8), into ``out``."""
        (idx,) = mask.nonzero()
        member = self.members[i]
        out[window * len(self.members) + i] = NodeReport(
            node_id=member.node_id,
            position=member.position,
            onset_time=float(t[i, window]) + int(idx[0]) / self.config.rate_hz,
            energy=float(d[idx].sum()) / idx.size,
            anomaly_frequency=float(idx.size) / mask.size,
            row=member.row,
            column=member.column,
        )

    def _trace_walk(
        self,
        act: np.ndarray,
        first_detecting: np.ndarray,
        t: np.ndarray,
        out: list[NodeReport | None],
    ) -> None:
        """Replay a call's windows through :meth:`_trace_step`, in order.

        A live window is evaluated once its row has passed
        initialisation (``first_detecting`` live windows).  A window
        emits only where an evaluated row reports or reported at its
        previous evaluated window (a mask transition), so the replay
        visits just those windows and the event stream equals the
        one-window walk's.
        """
        n, k = act.shape
        evaluated = act & (np.cumsum(act, axis=1) > first_detecting[:, None])
        reporting = (
            np.fromiter((r is not None for r in out), dtype=bool, count=n * k)
            .reshape(k, n)
            .T
        )
        # Each row's last evaluated window before window j (-1: none in
        # this call, so its state is the last one traced).
        seen = np.where(evaluated, np.arange(k), -1)
        np.maximum.accumulate(seen, axis=1, out=seen)
        before = np.full((n, k), -1)
        before[:, 1:] = seen[:, :-1]
        was = np.where(
            before >= 0,
            reporting[np.arange(n)[:, None], before],
            self._last_reporting[:, None],
        )
        for j in np.flatnonzero((evaluated & (reporting | was)).any(axis=0)):
            rows = np.flatnonzero(evaluated[:, j])
            self._trace_step(
                rows, reporting[rows, j], t[:, j], out[j * n : (j + 1) * n]
            )

    def _trace_step(
        self,
        rows: np.ndarray,
        reporting: np.ndarray,
        t0s: Sequence[float] | np.ndarray,
        out: list[NodeReport | None],
    ) -> None:
        """Emit one window's aggregate, mask transitions, and alarms.

        Quiet windows (nothing reporting, no mask transition) emit no
        event at all, and :meth:`_trace_walk` skips them, which keeps
        the traced walk inside the telemetry overhead gate.
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
        """Walk an ``(nodes, samples)`` preprocessed matrix.

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
        self._t0s = np.array(t0s, dtype=float)
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

    def _evaluate(self, block: np.ndarray, starts: range) -> None:
        """Step the windows at global samples ``starts`` in one call;
        ``block`` starts at global sample ``_base``."""
        if not starts:
            return
        detector = self.detector
        windows = hop_windows(
            block,
            starts.start - self._base,
            len(starts),
            detector.config.window_samples,
            starts.step,
        )
        t0s = self._t0s[:, None] + np.asarray(starts) / detector.config.rate_hz
        reports = detector.step(windows, t0s)
        rows = [self.reports[m.node_id] for m in detector.members]
        n = len(rows)
        # A NodeReport is truthy and None is not, so both iterators
        # skip the same entries: each report comes with its index.
        indices = itertools.compress(itertools.count(), reports)
        for j, report in zip(indices, filter(None, reports)):
            rows[j % n].append(report)

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
            self._evaluate(self._buf, range(final, final + 1))
        self._finished = True
        return self.reports

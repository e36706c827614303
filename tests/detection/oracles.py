"""The one-window lockstep walk :class:`FleetDetector.step` is checked against.

:class:`LockstepFleetDetector` advances every row through exactly one
Delta-t window per call, as the fleet engine did before its
block-speculative kernel: the eqs. 6-7 quantities are ``(rows,)``
vectors per window, quiet rows take the eq.-5 update, and reporting
rows drop to the scalar formulas for the onset and the compacted-sum
crossing energy.  A ``(nodes, k, window)`` call is walked one window at
a time with the same window-major return, so the oracle can stand in
for the kernel under :class:`~repro.detection.fleet.FleetStream` and
the scenario runners.  Events go through the production
``_trace_step``, one call per window.

:func:`node_window_walk` is the per-node reference: one
:class:`~repro.detection.node_detector.NodeDetector` fed every window
of a stream in turn, as the event-time network feed does.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.detection.fleet import FleetDetector
from repro.detection.node_detector import NodeDetector, window_starts
from repro.detection.reports import NodeReport
from repro.errors import ConfigurationError, InternalError, SignalLengthError


class LockstepFleetDetector(FleetDetector):
    """:class:`FleetDetector` with the one-window lockstep ``step``."""

    def step(
        self,
        windows: np.ndarray,
        t0s: Sequence[float],
        active: np.ndarray | None = None,
    ) -> list[Optional[NodeReport]]:
        w = np.asarray(windows, dtype=float)
        if w.ndim != 3:
            return self._one_window(w, t0s, active)
        t = np.asarray(t0s, dtype=float)
        act = None if active is None else np.asarray(active, dtype=bool)
        out: list[Optional[NodeReport]] = []
        for k in range(w.shape[1]):
            out.extend(
                self._one_window(
                    w[:, k],
                    t[:, k].tolist(),
                    None if act is None else act[:, k],
                )
            )
        return out

    def _one_window(
        self,
        w: np.ndarray,
        t0s: Sequence[float],
        active: np.ndarray | None,
    ) -> list[Optional[NodeReport]]:
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
        out: list[Optional[NodeReport]] = [None] * n

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
        w_act = w[rows]
        d = np.abs(w_act - std[:, None])
        mask = d > d_max[:, None]
        counts = np.count_nonzero(mask, axis=1)
        af = counts / w.shape[1]
        reporting = af > self.config.af_threshold

        quiet = ~reporting
        if np.any(quiet):
            q = w_act[quiet]
            m_dt = q.mean(axis=1)
            d_dt = np.sqrt(np.mean((q - m_dt[:, None]) ** 2, axis=1))
            qi = rows[quiet]
            beta1, beta2 = self.config.beta1, self.config.beta2
            self._mean[qi] = beta1 * self._mean[qi] + m_dt * (1.0 - beta1)
            self._std[qi] = beta2 * self._std[qi] + d_dt * (1.0 - beta2)

        for j in np.flatnonzero(reporting):
            i = int(rows[j])
            mask_row = mask[j]
            idx = np.flatnonzero(mask_row)
            if idx.size == 0:
                raise InternalError("anomalous window with no crossing onset")
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


def node_window_walk(
    detector: NodeDetector, a: np.ndarray, t0: float
) -> list[NodeReport]:
    """Feed every window of ``window_starts`` over ``a`` to ``detector``.

    ``a`` is one node's preprocessed stream starting at time ``t0``;
    returns the reports in window order.
    """
    cfg = detector.config
    w = cfg.window_samples
    reports = []
    for start in window_starts(cfg, len(a)):
        report = detector.process_window(
            a[start : start + w], t0 + start / cfg.rate_hz
        )
        if report is not None:
            reports.append(report)
    return reports

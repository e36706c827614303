"""Trace persistence and the one-call detection API.

A downstream user of this library most likely arrives with *their own*
accelerometer recordings (the paper's Fig. 5-style logs).  This module
gives them the two things they need:

- :func:`save_traces` / :func:`load_traces` — lossless ``.npz``
  persistence of multi-node :class:`~repro.types.AccelTrace` sets,
  plus :func:`export_csv` for spreadsheet-friendly dumps (z-only
  traces, whose ``x``/``y`` are ``None``, round-trip as z-only);
- :func:`detect_on_trace` — the full Sec. IV-B node-level pipeline on a
  raw z-axis count array in one call.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path
from typing import Mapping, Optional, Sequence

import numpy as np

from repro.constants import SAMPLE_RATE_HZ
from repro.detection.fleet import FleetDetector, FleetMember
from repro.detection.node_detector import NodeDetectorConfig, merge_reports
from repro.detection.preprocess import preprocess_z_counts
from repro.detection.reports import NodeReport
from repro.errors import ConfigurationError
from repro.types import AccelTrace, Position

_FORMAT_VERSION = 1


def save_traces(path: str | Path, traces: Mapping[int, AccelTrace]) -> None:
    """Persist a node-id -> trace mapping to one ``.npz`` file.

    A z-only trace stores no x/y arrays.
    """
    if not traces:
        raise ConfigurationError("nothing to save")
    payload: dict[str, np.ndarray] = {
        "format_version": np.array([_FORMAT_VERSION]),
        "node_ids": np.array(sorted(traces), dtype=np.int64),
    }
    for nid in sorted(traces):
        trace = traces[nid]
        payload[f"meta_{nid}"] = np.array([trace.t0, trace.rate_hz])
        if trace.x is not None and trace.y is not None:
            payload[f"x_{nid}"] = np.asarray(trace.x)
            payload[f"y_{nid}"] = np.asarray(trace.y)
        payload[f"z_{nid}"] = np.asarray(trace.z)
    np.savez_compressed(Path(path), **payload)


def load_traces(path: str | Path) -> dict[int, AccelTrace]:
    """Load a trace set written by :func:`save_traces`."""
    path = Path(path)
    if not path.exists():
        raise ConfigurationError(f"no such trace file: {path}")
    with np.load(path) as data:
        version = int(data["format_version"][0])
        if version != _FORMAT_VERSION:
            raise ConfigurationError(
                f"unsupported trace format version {version}"
            )
        out: dict[int, AccelTrace] = {}
        for nid in data["node_ids"]:
            nid = int(nid)
            t0, rate = data[f"meta_{nid}"]
            horizontal = f"x_{nid}" in data
            out[nid] = AccelTrace(
                t0=float(t0),
                rate_hz=float(rate),
                x=data[f"x_{nid}"].copy() if horizontal else None,
                y=data[f"y_{nid}"].copy() if horizontal else None,
                z=data[f"z_{nid}"].copy(),
            )
        return out


def export_csv(path: str | Path, trace: AccelTrace) -> None:
    """Write one trace as ``time,x,y,z`` rows (spreadsheet-friendly).

    A z-only trace leaves the x and y cells empty.
    """
    times = trace.times
    empty = [""] * len(trace)
    xs = empty if trace.x is None else [str(int(v)) for v in trace.x]
    ys = empty if trace.y is None else [str(int(v)) for v in trace.y]
    with open(Path(path), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["time_s", "x_counts", "y_counts", "z_counts"])
        for i in range(len(trace)):
            writer.writerow([f"{times[i]:.6f}", xs[i], ys[i], int(trace.z[i])])


def _csv_axis(cells: Sequence[str], name: str) -> Optional[np.ndarray]:
    """One CSV column as int64 counts; ``None`` when every cell is empty."""
    if not any(cells):
        return None
    try:
        return np.array([int(float(c)) for c in cells], dtype=np.int64)
    except ValueError:
        raise ConfigurationError(
            f"the {name} column must be all counts or all empty"
        ) from None


def import_csv(path: str | Path, rate_hz: float | None = None) -> AccelTrace:
    """Read a ``time,x,y,z`` CSV back into an :class:`AccelTrace`.

    The sample rate is inferred from the median timestamp step unless
    given explicitly; irregular timestamps are tolerated to 1 %.  Empty
    x and y columns (a z-only export) read back as ``None``.  A row
    without exactly four cells, a time or z cell that is not a finite
    number, or a timestamp that does not increase raises
    :class:`ConfigurationError` naming its line.
    """
    path = Path(path)
    if not path.exists():
        raise ConfigurationError(f"no such CSV file: {path}")
    times: list[float] = []
    xs: list[str] = []
    ys: list[str] = []
    zs: list[int] = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ConfigurationError("empty CSV file")

        def malformed(problem: str) -> ConfigurationError:
            return ConfigurationError(f"{path}, line {reader.line_num}: {problem}")

        for row in reader:
            if len(row) != 4:
                raise malformed(f"expected 4 cells (time,x,y,z), got {len(row)}")
            try:
                t, z = float(row[0]), float(row[3])
                if not (math.isfinite(t) and math.isfinite(z)):
                    raise ValueError
            except ValueError:
                raise malformed(
                    "time and z must be finite numbers, "
                    f"got {row[0]!r} and {row[3]!r}"
                ) from None
            if times and t <= times[-1]:
                raise malformed(
                    f"timestamps must strictly increase, got {t} after {times[-1]}"
                )
            times.append(t)
            xs.append(row[1])
            ys.append(row[2])
            zs.append(int(z))
    if len(times) < 2:
        raise ConfigurationError("CSV carries fewer than two samples")
    steps = np.diff(times)
    inferred = 1.0 / float(np.median(steps))
    if rate_hz is None:
        rate_hz = inferred
    elif abs(rate_hz - inferred) > 0.01 * rate_hz:
        raise ConfigurationError(
            f"declared rate {rate_hz} Hz disagrees with timestamps "
            f"(~{inferred:.2f} Hz)"
        )
    x, y = _csv_axis(xs, "x"), _csv_axis(ys, "y")
    if (x is None) != (y is None):
        raise ConfigurationError("x and y columns must both be filled or empty")
    return AccelTrace(
        t0=times[0],
        rate_hz=float(rate_hz),
        x=x,
        y=y,
        z=np.array(zs, dtype=np.int64),
    )


def detect_on_trace(
    z_counts: np.ndarray,
    rate_hz: float = SAMPLE_RATE_HZ,
    t0: float = 0.0,
    config: NodeDetectorConfig | None = None,
    merge_gap_s: float = 4.0,
) -> list[NodeReport]:
    """Run the full node-level pipeline on a raw z-axis count array.

    The one-call API for external data: preprocessing (1 Hz low-pass,
    gravity removal, rectification), adaptive thresholding on a one-row
    :class:`FleetDetector` and window merging, returning one report per
    detected event.  A ``config`` whose ``rate_hz`` differs from
    ``rate_hz`` raises :class:`ConfigurationError`.
    """
    if config is None:
        config = NodeDetectorConfig(rate_hz=rate_hz)
    # Filtering and window timing use the detector's rate.
    config.check_sample_rate(rate_hz)
    a = preprocess_z_counts(z_counts, config.rate_hz, config.preprocess)
    fleet = FleetDetector([FleetMember(0, Position(0.0, 0.0))], config)
    (reports,) = fleet.process_samples(a[None, :], [t0]).values()
    return merge_reports(reports, gap_s=merge_gap_s)

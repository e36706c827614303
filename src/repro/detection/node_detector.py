"""Node-level detection (paper Sec. IV-B and Algorithm SID lines 9-22).

The node walks its preprocessed sample stream in windows of
``delta_t`` seconds (the paper's ``Delta t``, set to the ~2 s ship-wave
disturbance duration in Sec. V-A).  Per window it computes the
deviations ``D_i`` against the adaptive baseline, the anomaly frequency
``af`` and the crossing energy ``E_dt``.  A window with ``af`` above the
predefined threshold produces a :class:`NodeReport` carrying the onset
timestamp and the energy; a quiet window instead feeds the eq.-5
baseline update.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.constants import BETA_1, BETA_2, NODE_LOWPASS_CUTOFF_HZ, SAMPLE_RATE_HZ
from repro.detection.preprocess import PreprocessConfig
from repro.detection.reports import NodeReport
from repro.errors import ConfigurationError, InternalError, SignalLengthError
from repro.types import Position


@dataclass(frozen=True)
class NodeDetectorConfig:
    """Tunables of the node-level detector.

    ``m`` is the paper's threshold multiplier M (evaluated at 1..3 in
    Fig. 11); ``af_threshold`` the anomaly-frequency decision level;
    ``window_s`` the paper's Delta-t (2 s); ``init_windows`` how many
    initial windows seed the baseline (the Initialization procedure's
    ``u`` samples).
    """

    m: float = 2.0
    af_threshold: float = 0.6
    window_s: float = 2.0
    #: Stride between successive window evaluations.  The default of
    #: half a window (1 s) means a mote re-evaluates the last Delta-t
    #: every second, so a wake train can never be split evenly across
    #: two disjoint windows and missed by both.
    hop_s: float | None = None
    init_windows: int = 5
    rate_hz: float = SAMPLE_RATE_HZ
    #: Eq.-5 smoothing factors; 1.0 freezes the baseline after seeding
    #: (the fixed-threshold ablation).
    beta1: float = BETA_1
    beta2: float = BETA_2
    preprocess: PreprocessConfig = field(default_factory=PreprocessConfig)

    def __post_init__(self) -> None:
        if self.m <= 0:
            raise ConfigurationError(f"M must be positive, got {self.m}")
        if not 0.0 < self.af_threshold <= 1.0:
            raise ConfigurationError(
                f"af_threshold must be in (0, 1], got {self.af_threshold}"
            )
        if self.window_s <= 0:
            raise ConfigurationError(
                f"window_s must be positive, got {self.window_s}"
            )
        if self.hop_s is not None and not 0 < self.hop_s <= self.window_s:
            raise ConfigurationError(
                f"hop_s must be in (0, window_s], got {self.hop_s}"
            )
        if self.init_windows < 1:
            raise ConfigurationError(
                f"init_windows must be >= 1, got {self.init_windows}"
            )
        # The Sec. IV-B low-pass is designed at this rate, so its cutoff
        # must lie below the Nyquist frequency.
        if self.rate_hz <= 2 * NODE_LOWPASS_CUTOFF_HZ:
            raise ConfigurationError(
                f"rate_hz must exceed {2 * NODE_LOWPASS_CUTOFF_HZ} Hz (the "
                f"low-pass cutoff's Nyquist rate), got {self.rate_hz}"
            )
        if not 0.0 <= self.beta1 <= 1.0 or not 0.0 <= self.beta2 <= 1.0:
            raise ConfigurationError("beta1/beta2 must be in [0, 1]")

    @property
    def window_samples(self) -> int:
        """Samples per Delta-t window."""
        return max(int(round(self.window_s * self.rate_hz)), 1)

    @property
    def hop_samples(self) -> int:
        """Samples per evaluation stride (default: half a window)."""
        hop = self.hop_s if self.hop_s is not None else self.window_s / 2.0
        return max(int(round(hop * self.rate_hz)), 1)

    def check_sample_rate(self, rate_hz: float) -> None:
        """Reject a stream sampled at a rate other than :attr:`rate_hz`.

        Window timing divides sample indices by ``rate_hz``, so such a
        stream would be silently mis-timed.  Rates within a 1e-3
        relative tolerance count as equal.
        """
        if abs(self.rate_hz - rate_hz) > 1e-3 * self.rate_hz:
            raise ConfigurationError(
                f"detector rate_hz ({self.rate_hz}) disagrees with the "
                f"{rate_hz} Hz sample rate"
            )


def window_starts(config: NodeDetectorConfig, n_samples: int) -> list[int]:
    """Start indices of every Delta-t window over an ``n_samples`` stream.

    The hop-strided walk plus, when the stride does not land exactly on
    the end of the stream, one final right-aligned window — otherwise
    the trailing ``< window_s`` of a trace would never be evaluated and
    a wake arriving there would be undetectable.  Every runner and both
    detector engines share this walk.
    """
    w = config.window_samples
    if n_samples < w:
        return []
    starts = list(range(0, n_samples - w + 1, config.hop_samples))
    if starts[-1] != n_samples - w:
        starts.append(n_samples - w)
    return starts


class NodeDetector:
    """One node's eqs. 4-8 state, fed one window at a time.

    This is the event-time walk: a healing-armed network run feeds each
    node's preprocessed windows to its own detector at their end times,
    because a cold restart (:meth:`reset`) can wipe a baseline mid-run.
    Whole records are walked by
    :class:`~repro.detection.fleet.FleetDetector`, one row per node.

    The eq.-5 baseline is two floats, :attr:`mean` (``m'_T``) and
    :attr:`std` (``d'_T``); both read 0 until the first
    ``init_windows`` windows have seeded them.
    """

    def __init__(
        self,
        node_id: int,
        position: Position,
        config: NodeDetectorConfig | None = None,
        row: int = 0,
        column: int = 0,
    ) -> None:
        self.node_id = node_id
        self.position = position
        self.config = config if config is not None else NodeDetectorConfig()
        self.row = row
        self.column = column
        self.reset()

    @property
    def initialized(self) -> bool:
        """True once the adaptive baseline has been seeded."""
        return self._init_buffer is None

    def reset(self) -> None:
        """Forget all baseline state (fresh deployment)."""
        self.mean = 0.0
        self.std = 0.0
        #: Initialization windows so far; None once the baseline seeded.
        self._init_buffer: list[np.ndarray] | None = []

    def process_window(
        self, a_window: np.ndarray, t0: float
    ) -> NodeReport | None:
        """Run one preprocessed Delta-t window starting at time ``t0``.

        Returns a :class:`NodeReport` for an anomalous window, ``None``
        otherwise.  Windows arriving before initialization completes
        only accumulate baseline statistics.
        """
        a = np.asarray(a_window, dtype=float)
        if a.size == 0:
            raise SignalLengthError("empty detection window")
        cfg = self.config
        buffer = self._init_buffer
        if buffer is not None:
            # Initialization: eq. 4 over the first init_windows windows,
            # each copied, since a caller may refill one buffer per window.
            buffer.append(a.copy())
            if len(buffer) >= cfg.init_windows:
                x = np.concatenate(buffer)
                self.mean = float(x.mean())
                self.std = math.sqrt(float(np.mean((x - self.mean) ** 2)))
                self._init_buffer = None
            return None
        # Eq. 6 deviations D_i, crossings of D_max = M m'_T, eq. 7 af.
        d = np.abs(a - self.std)
        d_max = cfg.m * self.mean
        if d_max < 0:
            raise ConfigurationError(f"D_max must be >= 0, got {d_max}")
        mask = d > d_max
        af = float(np.count_nonzero(mask)) / mask.size
        if af > cfg.af_threshold:
            (crossings,) = mask.nonzero()
            if crossings.size == 0:  # af > 0 implies at least one crossing
                raise InternalError(
                    "anomalous window with no crossing onset (af "
                    f"{af} > {cfg.af_threshold} but empty mask)"
                )
            return NodeReport(
                node_id=self.node_id,
                position=self.position,
                onset_time=t0 + int(crossings[0]) / cfg.rate_hz,
                # Eq. 8: the mean deviation over the crossings.
                energy=float(d[crossings].sum()) / crossings.size,
                anomaly_frequency=af,
                row=self.row,
                column=self.column,
            )
        # A quiet window: its eq. 4 statistics update the baseline (eq. 5).
        # np.mean is np.add.reduce over the window, then one division,
        # and ``** 2`` squares; spelled out, a window takes half the
        # time at the same bits.
        m_dt = float(np.add.reduce(a)) / a.size
        dev = a - m_dt
        np.multiply(dev, dev, out=dev)
        d_dt = math.sqrt(float(np.add.reduce(dev)) / a.size)
        self.mean = cfg.beta1 * self.mean + m_dt * (1.0 - cfg.beta1)
        self.std = cfg.beta2 * self.std + d_dt * (1.0 - cfg.beta2)
        return None


def merge_reports(
    reports: list[NodeReport], gap_s: float = 4.0
) -> list[NodeReport]:
    """Merge window reports separated by < ``gap_s`` into single events.

    A wake train spanning several Delta-t windows yields several window
    reports; the cluster protocol treats them as one detection with the
    earliest onset, the peak energy and the peak anomaly frequency.
    """
    if gap_s < 0:
        raise ConfigurationError(f"gap_s must be >= 0, got {gap_s}")
    if not reports:
        return []
    ordered = sorted(reports, key=lambda r: r.onset_time)
    merged: list[NodeReport] = [ordered[0]]
    for r in ordered[1:]:
        last = merged[-1]
        if r.onset_time - last.onset_time < gap_s:
            merged[-1] = NodeReport(
                node_id=last.node_id,
                position=last.position,
                onset_time=last.onset_time,
                energy=max(last.energy, r.energy),
                anomaly_frequency=max(
                    last.anomaly_frequency, r.anomaly_frequency
                ),
                row=last.row,
                column=last.column,
            )
        else:
            merged.append(r)
    return merged

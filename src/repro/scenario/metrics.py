"""Detection quality against ground truth.

The paper's headline number is the node-level *successful detection
ratio* (Fig. 11): the fraction of raised alarms that coincide with a
real ship disturbance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.detection.reports import NodeReport
from repro.errors import ConfigurationError
from repro.types import TimeWindow


@dataclass(frozen=True)
class ClassifiedAlarms:
    """Alarm counts split against ground truth."""

    true_positives: int
    false_positives: int
    events_total: int
    events_detected: int

    @property
    def n_alarms(self) -> int:
        """All alarms raised."""
        return self.true_positives + self.false_positives

    @property
    def precision(self) -> float:
        """Fraction of alarms that were genuine (paper's detection ratio)."""
        if self.n_alarms == 0:
            return 0.0
        return self.true_positives / self.n_alarms


def classify_alarms(
    reports: Sequence[NodeReport],
    true_windows: Sequence[TimeWindow],
    tolerance_s: float = 2.0,
) -> ClassifiedAlarms:
    """Split alarms into true/false against the ground-truth windows.

    An alarm is *true* when its onset falls within ``tolerance_s`` of a
    ground-truth disturbance window; a window is *detected* when at
    least one alarm matched it.
    """
    if tolerance_s < 0:
        raise ConfigurationError(
            f"tolerance must be >= 0, got {tolerance_s}"
        )
    expanded = [
        TimeWindow(w.start - tolerance_s, w.end + tolerance_s)
        for w in true_windows
    ]
    tp = 0
    fp = 0
    hit = [False] * len(expanded)
    for r in reports:
        matched = False
        for k, w in enumerate(expanded):
            if w.contains(r.onset_time):
                matched = True
                hit[k] = True
        if matched:
            tp += 1
        else:
            fp += 1
    return ClassifiedAlarms(
        true_positives=tp,
        false_positives=fp,
        events_total=len(true_windows),
        events_detected=sum(hit),
    )

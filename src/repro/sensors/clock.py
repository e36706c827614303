"""Node clock with drift and residual time-sync error.

"The nodes are time-synchronized before deployment" (Sec. III-A), and
the cluster algorithms assume "nodes ... have synchronized time within
the network" while noting sync only needs "certain precision required
by our application" (Sec. IV-C).  The model: local time = true time +
initial offset + linear drift, with :meth:`synchronize` collapsing the
error to a small residual (what a beacon protocol achieves).
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.rng import RandomState, make_rng


class Clock:
    """Local clock of one node.

    Parameters
    ----------
    offset_s:
        Initial offset from true time [s].
    drift_ppm:
        Frequency error in parts per million (typical crystal: 10-50).
    sync_residual_s:
        RMS of the offset left behind by one synchronisation.
    seed:
        Random state for the synchronisation residuals.
    """

    def __init__(
        self,
        offset_s: float = 0.0,
        drift_ppm: float = 20.0,
        sync_residual_s: float = 0.002,
        seed: RandomState = None,
    ) -> None:
        if sync_residual_s < 0:
            raise ConfigurationError(
                f"sync_residual_s must be >= 0, got {sync_residual_s}"
            )
        self._offset = offset_s
        self._drift = drift_ppm * 1e-6
        self._sync_residual = sync_residual_s
        self._last_sync_true_time = 0.0
        self._rng = make_rng(seed)

    @property
    def offset_s(self) -> float:
        """Current base offset (as of the last synchronisation)."""
        return self._offset

    @property
    def drift_ppm(self) -> float:
        """Frequency error in ppm."""
        return self._drift * 1e6

    def local_time(self, true_time: float) -> float:
        """Local reading at ``true_time``."""
        elapsed = true_time - self._last_sync_true_time
        return true_time + self._offset + self._drift * elapsed

    def error_at(self, true_time: float) -> float:
        """Clock error (local - true) at ``true_time``."""
        return self.local_time(true_time) - true_time

    def synchronize(self, true_time: float) -> float:
        """Re-synchronise at ``true_time``; returns the new residual offset.

        Models a sync exchange: the accumulated offset and drift error
        are replaced by a zero-mean gaussian residual.
        """
        self._offset = float(self._rng.normal(0.0, self._sync_residual))
        self._last_sync_true_time = true_time
        return self._offset

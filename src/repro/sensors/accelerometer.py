"""The ST LIS3L02DQ three-axis accelerometer model (Sec. III-A).

"The accelerometer has a range of +/-2g with 12 bit resolution."  The
model converts a true specific force [m/s^2] into raw signed counts:

- scale: 1024 counts per g (4096 codes over 4 g);
- clipping at +/-2 g;
- additive white noise and a small per-axis bias;
- mid-tread integer quantisation.

A resting, upright device therefore reads z ~= +1024 counts, matching
the ~1000-count level around which the paper's Fig. 5 z-trace floats.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np
import numpy.typing as npt

from repro.constants import (
    ACCEL_COUNTS_PER_G,
    ACCEL_RANGE_G,
    GRAVITY,
)
from repro.errors import ConfigurationError
from repro.rng import RandomState, make_rng

#: Most normals one step of :func:`skip_normals` draws.
SKIP_BLOCK = 1 << 16


def skip_normals(rng: np.random.Generator, count: int) -> None:
    """Advance ``rng`` past ``count`` normal draws.

    The draws land in one reused buffer of at most :data:`SKIP_BLOCK`
    normals, so skipping costs one block of memory however long the
    record.  A normal consumes the same bits whatever its mean, scale,
    shape or output buffer, so the stream then stands where ``count``
    noise draws of any read would leave it.
    """
    buf = np.empty(min(count, SKIP_BLOCK))
    while count:
        block = min(count, SKIP_BLOCK)
        rng.standard_normal(out=buf[:block])
        count -= block


@dataclass(frozen=True)
class AccelerometerSpec:
    """Static characteristics of one accelerometer device.

    Every device has the paper's range and resolution
    (:data:`~repro.constants.ACCEL_RANGE_G`,
    :data:`~repro.constants.ACCEL_COUNTS_PER_G`).
    """

    noise_rms_counts: float = 4.0
    bias_rms_counts: float = 8.0

    def __post_init__(self) -> None:
        if self.noise_rms_counts < 0 or self.bias_rms_counts < 0:
            raise ConfigurationError("noise/bias RMS must be >= 0")

    @property
    def max_counts(self) -> int:
        """Positive clipping level in counts."""
        return int(round(ACCEL_RANGE_G * ACCEL_COUNTS_PER_G))


class Accelerometer:
    """One physical device instance with its own frozen bias draw."""

    def __init__(
        self, spec: AccelerometerSpec | None = None, seed: RandomState = None
    ) -> None:
        self.spec = spec if spec is not None else AccelerometerSpec()
        rng = make_rng(seed)
        self._bias = rng.normal(0.0, self.spec.bias_rms_counts, size=3)
        self._noise_rng = rng

    @property
    def bias_counts(self) -> np.ndarray:
        """The device's per-axis bias [counts] (frozen at construction)."""
        return self._bias.copy()

    def mps2_to_counts(self, accel_mps2: npt.ArrayLike) -> np.ndarray:
        """Ideal (noise-free, unclipped, unquantised) conversion."""
        a = np.asarray(accel_mps2, dtype=float)
        return a / GRAVITY * ACCEL_COUNTS_PER_G

    def read_axis(self, accel_mps2: npt.ArrayLike, axis: int) -> np.ndarray:
        """Convert true specific force on one axis into raw counts.

        ``axis`` is 0 (x), 1 (y) or 2 (z) and selects which bias applies.
        """
        return self._digitise(accel_mps2, axis, self._noise_rng)

    def _digitise(
        self,
        accel_mps2: npt.ArrayLike,
        axis: int,
        noise_rng: np.random.Generator,
    ) -> np.ndarray:
        """Convert, add bias and ``noise_rng``'s noise, clip, quantise."""
        if axis not in (0, 1, 2):
            raise ConfigurationError(f"axis must be 0, 1 or 2, got {axis}")
        ideal = self.mps2_to_counts(accel_mps2)
        noisy = (
            ideal
            + self._bias[axis]
            + noise_rng.normal(0.0, self.spec.noise_rms_counts, ideal.shape)
        )
        limit = self.spec.max_counts
        clipped = np.clip(noisy, -limit, limit)
        return np.rint(clipped).astype(np.int64)

    def read(
        self,
        fx_mps2: npt.ArrayLike,
        fy_mps2: npt.ArrayLike,
        fz_mps2: npt.ArrayLike,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Convert a three-axis specific-force record into raw counts."""
        return (
            self.read_axis(fx_mps2, 0),
            self.read_axis(fy_mps2, 1),
            self.read_axis(fz_mps2, 2),
        )

    def read_z(self, fz_mps2: npt.ArrayLike) -> np.ndarray:
        """The z counts of :meth:`read`, without digitising x and y.

        The noise stream first skips the x and y draws
        (:func:`skip_normals`), so the z counts and the stream's final
        state equal those of a three-axis read of the same record.
        """
        fz = np.asarray(fz_mps2, dtype=float)
        skip_normals(self._noise_rng, 2 * fz.size)
        return self.read_axis(fz, 2)

    # ------------------------------------------------------------------
    # Chunked (streaming) digitisation
    # ------------------------------------------------------------------
    def axis_noise_rng(
        self, axis: int, n_samples: int
    ) -> np.random.Generator:
        """A noise-stream clone positioned at ``axis``'s draws.

        :meth:`read` consumes x-, y- then z-noise from one stream, so
        within a three-axis read of ``n_samples`` the draws for ``axis``
        start ``axis * n_samples`` normals into the stream.  The clone
        is advanced there by :func:`skip_normals`, the skip
        :meth:`read_z` makes on the device's own stream (the
        generator's normal stream is split-invariant, so chunked draws
        from it reproduce the monolithic read's values exactly), and
        the device's own stream is left untouched.
        """
        if axis not in (0, 1, 2):
            raise ConfigurationError(f"axis must be 0, 1 or 2, got {axis}")
        if n_samples < 0:
            raise ConfigurationError(
                f"n_samples must be >= 0, got {n_samples}"
            )
        rng = copy.deepcopy(self._noise_rng)
        skip_normals(rng, axis * n_samples)
        return rng

    def read_axis_chunk(
        self,
        accel_mps2: npt.ArrayLike,
        axis: int,
        noise_rng: np.random.Generator,
    ) -> np.ndarray:
        """:meth:`read_axis` drawing noise from an external stream.

        Used with :meth:`axis_noise_rng` to digitise one axis chunk by
        chunk; successive chunks reproduce a monolithic read of that
        axis bit for bit.
        """
        return self._digitise(accel_mps2, axis, noise_rng)

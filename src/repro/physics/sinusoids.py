"""Sums of sinusoids on an evenly spaced sample grid.

The ambient sea, the buoy's tilt and its mooring drift are all weighted
sums of sinusoids on a mote's sample grid,

``y[p, n] = sum_k c[p, k] cos(w_k t_n) + s[p, k] sin(w_k t_n)``,

with frequencies shared by every row (the ambient field) or drawn per
row (a buoy's two tilt axes, its two drift axes).

Taking trig at every (component, sample) pair costs ``K N`` libm calls.
On an evenly spaced grid each index splits as ``n = j B + m`` with
``t_n = t_{jB} + (t_m - t_0)``; angle addition folds the block-start
factors into per-block weights, and each block becomes two GEMMs
against the in-block offset factors.  Trig then runs ``K (N/B + B)``
times and the GEMMs keep the size of the direct ``(P, K) @ (K, N)``
contraction.  DESIGN.md §10 gives the derivation and error budget.
"""

from __future__ import annotations

import numpy as np
import numpy.typing as npt

from repro.errors import ConfigurationError

#: Samples per block.  Trig runs at the ``N / BLOCK`` block starts and
#: the ``BLOCK`` in-block offsets; 200 sits near ``sqrt(N)`` for the
#: 20 000-sample records and keeps the per-block weight build (``P N /
#: BLOCK`` elements) small next to the GEMMs on 64-node fleets.
BLOCK = 200

#: Largest deviation from an evenly spaced grid the factorisation
#: accepts, in ulps of ``max|t|``.  ``t0 + arange(n) / rate`` grids and
#: their slices stay within 3.
GRID_ULPS = 8


def _check_even_grid(t: np.ndarray) -> None:
    """Raise unless ``t`` is evenly spaced to within :data:`GRID_ULPS`."""
    n = t.size
    if n < 3:
        return
    dt = (t[-1] - t[0]) / (n - 1)
    deviation = np.abs(t - (t[0] + dt * np.arange(n))).max()
    tolerance = GRID_ULPS * np.spacing(np.abs(t).max())
    if not deviation <= tolerance:
        raise ConfigurationError(
            "sums of sinusoids need an evenly spaced sample grid; "
            f"this one deviates by {deviation:.3g} s "
            f"(tolerance {tolerance:.3g} s)"
        )


def grid_sinusoid_sum(
    omega: np.ndarray,
    t: npt.ArrayLike,
    cos_weights: np.ndarray,
    sin_weights: np.ndarray,
) -> np.ndarray:
    """``sum_k c[p, k] cos(w[p, k] t_n) + s[p, k] sin(w[p, k] t_n)``; (P, len(t)).

    ``cos_weights`` and ``sin_weights`` are (P, K).  ``omega`` holds the
    angular frequencies [rad/s]: K shared by every row, or (P, K), one
    set per row.  Shared frequencies stack every row into one GEMM;
    per-row frequencies contract each row with its own GEMM (a stacked
    ``matmul``), the BLAS call a one-row sum makes, so a (P, K) sum
    equals P one-row sums bit for bit.  ``t`` must be evenly spaced
    (any sample grid of :class:`~repro.sensors.sampler.Sampler`, or a
    slice of one); anything else raises :class:`ConfigurationError`.
    """
    t = np.atleast_1d(np.asarray(t, dtype=float))
    _check_even_grid(t)
    n_rows, n_terms = cos_weights.shape
    if t.size == 0:
        return np.zeros((n_rows, 0))
    block = min(BLOCK, t.size)
    # (R, K) with R = 1 (shared) or P (per row); R GEMMs below.
    omega = np.reshape(omega, (-1, n_terms))
    starts = t[::block, None] * omega[:, None, :]
    cos_start = np.cos(starts)
    sin_start = np.sin(starts)
    c = cos_weights[:, None, :]
    s = sin_weights[:, None, :]
    operand = (omega.shape[0], -1, n_terms)
    c_block = (c * cos_start + s * sin_start).reshape(operand)
    s_block = (s * cos_start - c * sin_start).reshape(operand)
    offsets = omega[:, :, None] * (t[:block] - t[0])
    out = c_block @ np.cos(offsets) + s_block @ np.sin(offsets)
    return out.reshape(n_rows, -1)[:, : t.size]

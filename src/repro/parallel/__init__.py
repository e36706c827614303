"""Deterministic parallel Monte-Carlo sweep execution.

The paper's evaluation aggregates dozens of independent seeded scenario
runs (Fig. 11's M x af grid, the robustness sweep's severity x seed
matrix).  Each run is already fully deterministic given its integer
seed, so the sweep is embarrassingly parallel *and* order-independent:
:class:`SweepRunner` fans tasks across worker processes and guarantees
bit-identical results to the serial loop.
"""

from repro.parallel.sweep import SweepConfig, SweepRunner

__all__ = ["SweepConfig", "SweepRunner"]

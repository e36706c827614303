"""Fig. 11 — successful detection ratio vs anomaly frequency and M.

Paper shape: the ratio increases with the anomaly frequency ``af`` and
with the threshold multiplier ``M``; at M = 2 and af = 60 % the ratio
exceeds 70 %.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.experiments import run_fig11_detection_ratio
from repro.analysis.tables import format_matrix
from repro.parallel import SweepConfig, SweepRunner

M_VALUES = (1.0, 2.0, 3.0)
AF_VALUES = (0.4, 0.6, 0.8)
#: Seeds per (M, af) cell: the driver's own default, whatever the
#: worker count.
SEEDS = (1, 2, 3)


def test_bench_fig11_detection_ratio(once):
    # The (M, af, seed) grid fans out through the sweep runner; set
    # $REPRO_SWEEP_WORKERS to parallelise on multi-core machines —
    # results are bit-identical either way.
    runner = SweepRunner(SweepConfig.from_env())
    points = once(
        run_fig11_detection_ratio, M_VALUES, AF_VALUES, SEEDS,
        runner=runner,
    )
    ratios = {(p.m, p.af): p.ratio for p in points}
    matrix = [[ratios[(m, af)] for af in AF_VALUES] for m in M_VALUES]

    print()
    print(
        format_matrix(
            [f"M={m}" for m in M_VALUES],
            [f"af={af}" for af in AF_VALUES],
            matrix,
            title="Fig. 11: successful detection ratio",
        )
    )

    arr = np.array(matrix)
    # Monotone (within noise) in af for every M...
    for i in range(len(M_VALUES)):
        assert arr[i, -1] >= arr[i, 0] - 0.05
    # ...and monotone in M for every af.
    for j in range(len(AF_VALUES)):
        assert arr[-1, j] >= arr[0, j] - 0.05
    # The paper's headline operating point: M=2, af=60% -> above 70%.
    assert ratios[(2.0, 0.6)] > 0.7
    # The permissive corner is genuinely noisy (the paper's motivation
    # for cluster-level fusion).
    assert ratios[(1.0, 0.4)] < 0.6

"""Exact pins of the headline paper artefacts at the benches' settings.

The benches in ``benchmarks/`` print these artefacts and assert only
their shape (monotonicity, the 0.4 and 0.7 thresholds).  Here every
cell is pinned exactly, so no refactor can move Fig. 11 or Tables I-II
unnoticed; the values are the ones EXPERIMENTS.md tabulates.
"""

from __future__ import annotations

from repro.analysis.experiments import (
    run_correlation_table,
    run_fig11_detection_ratio,
)

#: ``(M, af) -> (true positives, false positives)`` over seeds 1-3.
FIG11 = {
    (1.0, 0.4): (274, 1735),
    (1.0, 0.6): (193, 277),
    (1.0, 0.8): (130, 27),
    (2.0, 0.4): (183, 116),
    (2.0, 0.6): (162, 16),
    (2.0, 0.8): (50, 0),
    (3.0, 0.4): (174, 16),
    (3.0, 0.6): (105, 1),
    (3.0, 0.8): (16, 0),
}

#: Table I (no ship, 10 seeds): rows M = 1, 2, 3; columns 4, 5, 6 rows.
TABLE1 = [
    [0.01259645061728395, 0.005945644718792867, 0.002468183203779911],
    [0.020247485139460446, 0.0074748434562820695, 0.004326456276425793],
    [0.0, 0.0, 0.0],
]

#: Table II (with ship, 4 seeds x 10 and 16 knots), laid out as Table I.
TABLE2 = [
    [0.8229166666666666, 0.8229166666666666, 0.8229166666666666],
    [0.8229166666666666, 0.8229166666666666, 0.8229166666666666],
    [0.8645833333333333, 0.8645833333333333, 0.8645833333333333],
]

M_VALUES = (1.0, 2.0, 3.0)
ROW_COUNTS = (4, 5, 6)


def test_fig11_grid_pinned():
    points = run_fig11_detection_ratio(M_VALUES, (0.4, 0.6, 0.8), (1, 2, 3))
    assert {
        (p.m, p.af): (p.true_positives, p.false_positives) for p in points
    } == FIG11


def test_table1_pinned():
    matrix = run_correlation_table(
        False, M_VALUES, ROW_COUNTS, tuple(range(1, 11))
    )
    assert matrix == TABLE1


def test_table2_pinned():
    matrix = run_correlation_table(True, M_VALUES, ROW_COUNTS, (1, 2, 3, 4))
    assert matrix == TABLE2

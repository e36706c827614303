"""Exact pins of the headline paper artefacts at the benches' settings.

The benches in ``benchmarks/`` print these artefacts and assert only
their shape (monotonicity, the 0.4 and 0.7 thresholds).  Here every
cell is pinned exactly, so no refactor can move Fig. 11, Fig. 12 or
Tables I-II unnoticed; the values are the ones EXPERIMENTS.md tabulates.
"""

from __future__ import annotations

from repro.analysis.experiments import (
    run_correlation_table,
    run_fig11_detection_ratio,
    run_fig12_speed_estimation,
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

#: Fig. 12 (alphas 50/55/60 deg x seeds 1-3): per true speed [kn], the
#: pair-i and pair-j estimates [kn] of every trial, in trial order.
FIG12 = {
    10.0: (
        9.203870289671254, 9.20387028967125,
        10.855608406292037, 10.855608406292076,
        10.004485895292376, 10.004485895292342,
        9.250820558428531, 9.250820558428472,
        12.464208343174171, 12.46420834317416,
        9.413716095491168, 9.413716095491123,
        9.34252573053705, 9.34252573053701,
        12.11249331968135, 12.112493319681407,
        9.060329806822411, 9.060329806822459,
    ),
    16.0: (
        15.83907827197185, 15.839078271971713,
        17.34313001742384, 17.343130017423864,
        16.84232944451678, 16.842329444516864,
        11.19428347964049, 11.194283479640529,
        16.76093374719603, 16.760933747196116,
        14.055223667031205, 14.055223667031315,
        13.500769723957928, 13.500769723957934,
        18.465081870708016, 18.465081870708023,
        14.889509337838305, 14.88950933783819,
    ),
}

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


def test_fig12_pinned():
    rows = run_fig12_speed_estimation((10.0, 16.0), (50.0, 55.0, 60.0), (1, 2, 3))
    assert {row.speed_knots: row.estimates_knots for row in rows} == FIG12
    for row in rows:
        assert row.min_knots == min(FIG12[row.speed_knots])
        assert row.max_knots == max(FIG12[row.speed_knots])

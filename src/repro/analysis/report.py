"""Reproduction report generator.

Runs every paper experiment and renders one plain-text report — the
quick way to eyeball the whole reproduction without pytest:

```bash
python -m repro.analysis.report --quick          # reduced Monte Carlo
python -m repro.analysis.report -o report.txt    # full, to a file
```

``--quick`` shrinks the seed sets so the report finishes in ~1 minute;
the full configuration matches the benchmarks: seeds 1-3 for the
figures, and Tables I and II over their published seed sets.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Sequence, TextIO

from repro.analysis.experiments import (
    run_correlation_table,
    run_fig5_ocean_waves,
    run_fig6_stft_comparison,
    run_fig7_wavelet,
    run_fig8_filtering,
    run_fig11_detection_ratio,
    run_fig12_speed_estimation,
)
from repro.analysis.tables import format_matrix, format_rows


#: Full-mode seed sets: the figures', Table I's and Table II's, as the
#: benchmarks and EXPERIMENTS.md run them.
FULL_SEEDS = (1, 2, 3)
TABLE1_SEEDS = tuple(range(1, 11))
TABLE2_SEEDS = (1, 2, 3, 4)


def _section(out: TextIO, title: str) -> None:
    out.write(f"\n{'=' * 66}\n{title}\n{'=' * 66}\n")


def generate_report(
    out: TextIO,
    quick: bool = True,
    seeds: Sequence[int] | None = None,
) -> None:
    """Run all experiments and write the report to ``out``.

    Quick mode runs every artefact on seed 1; full mode runs the
    figures on :data:`FULL_SEEDS` and Tables I and II on
    :data:`TABLE1_SEEDS` and :data:`TABLE2_SEEDS`.  An explicit
    ``seeds`` runs every artefact on that set.
    """
    if seeds is not None:
        seeds = table1_seeds = table2_seeds = tuple(seeds)
    elif quick:
        seeds = table1_seeds = table2_seeds = (1,)
    else:
        seeds, table1_seeds, table2_seeds = FULL_SEEDS, TABLE1_SEEDS, TABLE2_SEEDS
    t_start = time.perf_counter()
    out.write("SID reproduction report\n")
    out.write(
        f"mode: {'quick' if quick else 'full'}; seeds: {seeds}; "
        f"Table I seeds: {table1_seeds}; Table II seeds: {table2_seeds}\n"
    )

    _section(out, "Fig. 5 - three-axis ambient record (raw counts)")
    _, summary = run_fig5_ocean_waves(duration_s=120.0 if quick else 250.0)
    out.write(
        format_rows(
            [
                {"axis": k, "mean": v.mean, "std": v.std}
                for k, v in summary.items()
            ],
            columns=["axis", "mean", "std"],
        )
        + "\n"
    )

    _section(out, "Fig. 6 - STFT with vs without ship")
    cmp = run_fig6_stft_comparison()
    out.write(
        format_rows(
            [
                {
                    "segment": "ambient",
                    "dom_hz": cmp.ambient_features.dominant_frequency_hz,
                    "power": cmp.ambient_features.total_power,
                },
                {
                    "segment": "ship",
                    "dom_hz": cmp.ship_features.dominant_frequency_hz,
                    "power": cmp.ship_features.total_power,
                },
            ],
            columns=["segment", "dom_hz", "power"],
        )
        + "\n"
    )

    _section(out, "Fig. 7 - wavelet view of the wake")
    _, wavelet_summary = run_fig7_wavelet()
    out.write(
        format_rows(
            [wavelet_summary],
            columns=list(wavelet_summary.keys()),
            col_width=24,
        )
        + "\n"
    )

    _section(out, "Fig. 8 - 1 Hz low-pass effect")
    fig8 = run_fig8_filtering()
    out.write(
        format_rows([fig8], columns=list(fig8.keys()), col_width=18) + "\n"
    )

    _section(out, "Fig. 11 - successful detection ratio")
    m_values = (1.0, 2.0, 3.0)
    af_values = (0.4, 0.6, 0.8)
    points = run_fig11_detection_ratio(
        m_values=m_values, af_values=af_values, seeds=seeds
    )
    ratios = {(p.m, p.af): p.ratio for p in points}
    out.write(
        format_matrix(
            [f"M={m}" for m in m_values],
            [f"af={af}" for af in af_values],
            [[ratios[(m, af)] for af in af_values] for m in m_values],
        )
        + "\n"
    )

    _section(out, "Table I - correlation coefficient C (no ship)")
    matrix = run_correlation_table(False, seeds=table1_seeds)
    out.write(
        format_matrix(
            [f"M={m}" for m in (1.0, 2.0, 3.0)],
            [f"rows={k}" for k in (4, 5, 6)],
            matrix,
            precision=4,
        )
        + "\n"
    )

    _section(out, "Table II - correlation coefficient C (with ship)")
    matrix = run_correlation_table(True, seeds=table2_seeds)
    out.write(
        format_matrix(
            [f"M={m}" for m in (1.0, 2.0, 3.0)],
            [f"rows={k}" for k in (4, 5, 6)],
            matrix,
        )
        + "\n"
    )

    _section(out, "Fig. 12 - ship speed estimation")
    rows = run_fig12_speed_estimation(seeds=seeds)
    out.write(
        format_rows(
            [
                {
                    "actual_kn": r.speed_knots,
                    "min_kn": r.min_knots,
                    "max_kn": r.max_knots,
                    "worst_err": r.worst_error_fraction,
                }
                for r in rows
            ],
            columns=["actual_kn", "min_kn", "max_kn", "worst_err"],
        )
        + "\n"
    )

    out.write(f"\nreport generated in {time.perf_counter() - t_start:.0f} s\n")


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.report",
        description="Regenerate the paper's evaluation tables/figures.",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="single-seed Monte Carlo (~1 minute)",
    )
    parser.add_argument(
        "-o",
        "--output",
        default=None,
        help="write the report to this file instead of stdout",
    )
    args = parser.parse_args(argv)
    if args.output:
        with open(args.output, "w") as fh:
            generate_report(fh, quick=args.quick)
        print(f"report written to {args.output}")
    else:
        generate_report(sys.stdout, quick=args.quick)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

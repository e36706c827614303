"""Light-weight checks of the experiment drivers.

The heavy Monte-Carlo shape assertions live in ``benchmarks/``; here we
verify the drivers run, return well-formed records and respect their
parameters, using the smallest viable configurations.
"""

from __future__ import annotations

import weakref

import numpy as np
import pytest

from repro.analysis import experiments
from repro.analysis.experiments import (
    Fig11Point,
    run_correlation_table,
    run_fig5_ocean_waves,
    run_fig6_stft_comparison,
    run_fig7_wavelet,
    run_fig8_filtering,
    run_fig11_detection_ratio,
    run_fig12_speed_estimation,
    run_threshold_ablation,
)
from repro.scenario.runner import FleetRecording
from tests.analysis import oracles
from tests.physics.oracles import per_position_ambient


def test_fig5_driver():
    trace, summary = run_fig5_ocean_waves(duration_s=60.0, seed=1)
    assert len(trace) == 3000
    assert set(summary) == {"x", "y", "z"}
    assert summary["z"].mean > 800


def test_fig6_driver():
    cmp = run_fig6_stft_comparison(seed=2)
    assert cmp.frequencies_hz[0] >= 0.1
    assert cmp.frequencies_hz[-1] <= 5.0
    assert cmp.ship_features.total_power > cmp.ambient_features.total_power


def test_fig7_driver():
    scalogram, summary = run_fig7_wavelet(seed=3)
    assert 0.0 <= summary["wake_low_freq_fraction"] <= 1.0
    assert scalogram.power.shape[0] == 40


def test_fig8_driver():
    result = run_fig8_filtering(seed=4)
    assert result["filtered_above_1hz"] < result["raw_above_1hz"]
    assert result["raw_rms"] > 0


def _fig5_and_fig6_traces(monkeypatch, seed):
    """Fig. 5's three axes and the trace Fig. 6 transforms, for ``seed``."""
    fig5, _ = run_fig5_ocean_waves(seed=seed)
    fig6 = []
    stft = experiments.stft

    def recording_stft(x, *args, **kwargs):
        fig6.append(np.array(x))
        return stft(x, *args, **kwargs)

    with monkeypatch.context() as mp:
        mp.setattr(experiments, "stft", recording_stft)
        run_fig6_stft_comparison(seed=seed)
    return fig5.x, fig5.y, fig5.z, fig6[0]


@pytest.mark.parametrize("seed", range(10))
def test_one_node_figures_match_per_position_formulas(monkeypatch, seed):
    # Figs. 5 and 6 synthesise one node through the one-position fleet
    # batch; the per-position formulas must digitise the same counts.
    batch = _fig5_and_fig6_traces(monkeypatch, seed)
    with monkeypatch.context() as mp:
        per_position_ambient(mp)
        reference = _fig5_and_fig6_traces(mp, seed)
    for got, want in zip(batch, reference):
        assert np.array_equal(got, want)


def test_fig11_point_ratio():
    p = Fig11Point(m=2.0, af=0.5, true_positives=3, false_positives=1)
    assert p.ratio == 0.75
    assert Fig11Point(2.0, 0.5, 0, 0).ratio == 0.0


def test_fig11_driver_minimal():
    points = run_fig11_detection_ratio(
        m_values=(2.0,), af_values=(0.5,), seeds=(1,)
    )
    assert len(points) == 1
    assert points[0].true_positives + points[0].false_positives >= 0


@pytest.fixture
def fig11_syntheses(monkeypatch):
    """Seeds of the fleet syntheses the Fig. 11 and Table drivers make.

    Starts from an empty memo, and fails any synthesis that starts
    while a recording a driver made earlier is still alive: the module
    must hold at most one recording, even while it synthesises.
    """
    monkeypatch.setattr(experiments, "_fig11_memo", None)
    made: list[weakref.ref] = []
    seeds: list[int] = []
    from_traces = FleetRecording.from_traces
    synthesize = experiments.synthesize_fleet_traces

    def tracked_from_traces(deployment, traces):
        recording = from_traces(deployment, traces)
        made.append(weakref.ref(recording))
        return recording

    def checked_synthesis(*args, **kwargs):
        assert all(ref() is None for ref in made), "two recordings held"
        seeds.append(kwargs["seed"])
        return synthesize(*args, **kwargs)

    monkeypatch.setattr(
        FleetRecording, "from_traces", staticmethod(tracked_from_traces)
    )
    monkeypatch.setattr(
        experiments, "synthesize_fleet_traces", checked_synthesis
    )
    return seeds


def _fig11_call_order():
    """``(seed, seed_offset, m, af)`` calls that exercise every memo path.

    Per pair of seeds: a miss, a hit, an eviction by the second seed
    and a hit on it.  The tail returns to seed 1 long after its
    eviction, then reaches key 5 through ``seed_offset`` with the
    same ``seed``, then hits key 5 with no offset.
    """
    (m0, af0), (m1, af1) = (2.0, 0.6), (1.0, 0.4)
    calls = []
    for a in range(1, 11, 2):
        b = a + 1
        calls += [
            (a, 0, m0, af0),
            (a, 0, m1, af1),
            (b, 0, m0, af0),
            (b, 0, m1, af1),
        ]
    return calls + [(1, 0, m0, af0), (1, 4, m0, af0), (5, 0, m1, af1)]


def test_fig11_cell_matches_oracle_in_any_call_order(monkeypatch):
    monkeypatch.setattr(experiments, "_fig11_memo", None)
    want: dict[tuple[int, float, float], tuple[int, int]] = {}
    for seed, offset, m, af in _fig11_call_order():
        key = (seed + offset, m, af)
        if key not in want:
            want[key] = oracles.fig11_cell(m, af, seed, seed_offset=offset)
        got = experiments.fig11_cell(m, af, seed, seed_offset=offset)
        assert got == want[key], (seed, offset, m, af)


def test_fig11_cells_of_one_seed_synthesise_once(fig11_syntheses):
    for m, af in ((1.0, 0.4), (1.5, 0.6), (2.0, 0.6), (3.0, 0.8)):
        experiments.fig11_cell(m, af, seed=3)
    assert fig11_syntheses == [300]


def test_fig11_memo_holds_one_recording(fig11_syntheses):
    # Each new key drops the last recording before synthesising.
    for seed in (3, 4, 3):
        experiments.fig11_cell(2.0, 0.6, seed=seed)
    assert fig11_syntheses == [300, 400, 300]


def test_fig11_sweep_synthesises_each_seed_once(fig11_syntheses):
    # Seed-major dispatch: a seed's cells run back to back.
    run_fig11_detection_ratio(
        m_values=(1.0, 2.0), af_values=(0.4, 0.6), seeds=(1, 2)
    )
    assert fig11_syntheses == [100, 200]


def test_table_runs_hold_one_recording(fig11_syntheses):
    # Each run's recording is dropped before the next run synthesises.
    run_correlation_table(
        True, m_values=(2.0,), row_counts=(4,), seeds=(1, 2),
        speeds_knots=(10.0,),
    )
    assert fig11_syntheses == [110, 210]


def test_table_run_drops_the_fig11_memo(fig11_syntheses):
    # A Table run after a Fig. 11 cell of the same seed synthesises
    # only once the memoised Fig. 11 recording is gone.
    experiments.fig11_cell(2.0, 0.6, seed=1)
    run_correlation_table(
        False, m_values=(2.0,), row_counts=(4,), seeds=(1,)
    )
    assert fig11_syntheses == [100, 110]


def test_correlation_table_shape():
    matrix = run_correlation_table(
        True, m_values=(2.0,), row_counts=(4, 6), seeds=(1,),
        speeds_knots=(10.0,),
    )
    assert len(matrix) == 1
    assert len(matrix[0]) == 2
    # More required rows can only lower the product.
    assert matrix[0][1] <= matrix[0][0] + 1e-9


def test_fig12_driver_minimal():
    rows = run_fig12_speed_estimation(
        speeds_knots=(10.0,), alphas_deg=(55.0,), seeds=(1,)
    )
    assert len(rows) == 1
    row = rows[0]
    assert row.min_knots <= row.max_knots
    assert len(row.estimates_knots) >= 1


def test_threshold_ablation_driver():
    result = run_threshold_ablation(seeds=(1,))
    assert set(result) == {
        "adaptive_false_per_node_hour",
        "fixed_false_per_node_hour",
    }
    assert result["fixed_false_per_node_hour"] >= 0


def test_report_generator_quick(tmp_path):
    """The report CLI runs end to end and covers every experiment."""
    import io

    from repro.analysis.report import generate_report

    buffer = io.StringIO()
    generate_report(buffer, quick=True)
    text = buffer.getvalue()
    for marker in (
        "Fig. 5",
        "Fig. 6",
        "Fig. 7",
        "Fig. 8",
        "Fig. 11",
        "Table I",
        "Table II",
        "Fig. 12",
    ):
        assert marker in text


def test_report_cli_writes_file(tmp_path):
    from repro.analysis.report import main

    out = tmp_path / "report.txt"
    assert main(["--quick", "-o", str(out)]) == 0
    assert "Fig. 12" in out.read_text()


def test_report_full_mode_runs_published_seed_sets(monkeypatch):
    """Full mode runs Tables I and II on the seeds EXPERIMENTS.md
    publishes (1-10 and 1-4) and the figures on seeds 1-3."""
    import io
    from types import SimpleNamespace as NS

    from repro.analysis import report

    calls: dict[str, tuple[int, ...]] = {}

    def table(with_ship, seeds):
        calls["table2" if with_ship else "table1"] = tuple(seeds)
        return [[0.0] * 3 for _ in range(3)]

    def fig11(m_values, af_values, seeds):
        calls["fig11"] = tuple(seeds)
        return [NS(m=m, af=af, ratio=0.0) for m in m_values for af in af_values]

    def fig12(seeds):
        calls["fig12"] = tuple(seeds)
        return [
            NS(
                speed_knots=10.0,
                min_knots=9.0,
                max_knots=11.0,
                worst_error_fraction=0.1,
            )
        ]

    features = NS(dominant_frequency_hz=0.2, total_power=1.0)
    stubs = {
        "run_fig5_ocean_waves": lambda duration_s: (
            None, {"z": NS(mean=0.0, std=1.0)}
        ),
        "run_fig6_stft_comparison": lambda: NS(
            ambient_features=features, ship_features=features
        ),
        "run_fig7_wavelet": lambda: (None, {"peak": 1.0}),
        "run_fig8_filtering": lambda: {"gain": 1.0},
        "run_fig11_detection_ratio": fig11,
        "run_correlation_table": table,
        "run_fig12_speed_estimation": fig12,
    }
    for name, stub in stubs.items():
        monkeypatch.setattr(report, name, stub)

    report.generate_report(io.StringIO(), quick=False)
    assert calls == {
        "fig11": (1, 2, 3),
        "table1": tuple(range(1, 11)),
        "table2": (1, 2, 3, 4),
        "fig12": (1, 2, 3),
    }
    report.generate_report(io.StringIO(), quick=True)
    assert set(calls.values()) == {(1,)}
    report.generate_report(io.StringIO(), quick=False, seeds=(5, 6))
    assert set(calls.values()) == {(5, 6)}


def test_correlation_components_driver():
    from repro.analysis.experiments import run_correlation_components

    result = run_correlation_components(True, seeds=(1,))
    assert set(result) == {"time_only", "energy_only", "combined"}
    assert 0.0 <= result["combined"] <= 1.0
    # Eq. 13: the combined coefficient is a product of the factors, so
    # averaged over trials it cannot exceed either single factor.
    assert result["combined"] <= result["time_only"] + 1e-9
    assert result["combined"] <= result["energy_only"] + 1e-9


def test_cluster_size_ablation_driver():
    from repro.analysis.experiments import run_cluster_size_ablation

    rows = run_cluster_size_ablation(row_counts=(2, 4), seeds=(1,))
    assert [r["rows"] for r in rows] == [2, 4]
    for r in rows:
        assert set(r) >= {"rows", "mean_C_ship", "mean_C_noship", "margin"}
        assert r["margin"] == pytest.approx(
            r["mean_C_ship"] - r["mean_C_noship"]
        )

"""Tests for trace persistence and the one-call detection API."""

from __future__ import annotations

import numpy as np
import pytest

from repro.constants import ACCEL_COUNTS_PER_G
from repro.errors import ConfigurationError
from repro.detection.node_detector import NodeDetectorConfig
from repro.scenario.presets import paper_scenario
from repro.scenario.synthesis import SynthesisConfig, synthesize_fleet_traces
from repro.scenario.trace_io import (
    detect_on_trace,
    export_csv,
    import_csv,
    load_traces,
    save_traces,
)


@pytest.fixture
def traces(tiny_grid):
    return synthesize_fleet_traces(
        tiny_grid, config=SynthesisConfig(duration_s=20.0), seed=5
    )


class TestNpzRoundtrip:
    def test_roundtrip_lossless(self, traces, tmp_path):
        path = tmp_path / "traces.npz"
        save_traces(path, traces)
        back = load_traces(path)
        assert set(back) == set(traces)
        for nid in traces:
            assert np.array_equal(back[nid].z, traces[nid].z)
            assert back[nid].t0 == traces[nid].t0
            assert back[nid].rate_hz == traces[nid].rate_hz
            # Synthesis records z only unless asked for x/y.
            assert back[nid].x is None and back[nid].y is None

    def test_horizontal_axes_roundtrip(self, tiny_grid, tmp_path):
        traces = synthesize_fleet_traces(
            tiny_grid,
            config=SynthesisConfig(duration_s=20.0, include_horizontal=True),
            seed=5,
        )
        path = tmp_path / "traces.npz"
        save_traces(path, traces)
        back = load_traces(path)
        for nid, trace in traces.items():
            assert np.array_equal(back[nid].x, trace.x)
            assert np.array_equal(back[nid].y, trace.y)
            assert np.array_equal(back[nid].z, trace.z)

    def test_empty_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            save_traces(tmp_path / "x.npz", {})

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            load_traces(tmp_path / "absent.npz")


class TestCsvRoundtrip:
    def test_roundtrip(self, traces, tmp_path):
        path = tmp_path / "trace.csv"
        original = traces[0]
        export_csv(path, original)
        back = import_csv(path)
        assert np.array_equal(back.z, original.z)
        assert back.rate_hz == pytest.approx(original.rate_hz, rel=0.01)
        assert back.t0 == pytest.approx(original.t0, abs=1e-5)
        # A z-only trace exports empty x/y cells and reads back z-only.
        assert back.x is None and back.y is None
        _, first = path.read_text().splitlines()[:2]
        assert first.split(",")[1:3] == ["", ""]

    def test_half_filled_axis_rejected(self, tmp_path):
        path = tmp_path / "half.csv"
        path.write_text("time_s,x,y,z\n0.00,1,2,1024\n0.02,,,1024\n")
        with pytest.raises(ConfigurationError, match="x column"):
            import_csv(path)

    def test_one_horizontal_column_rejected(self, tmp_path):
        path = tmp_path / "x_only.csv"
        path.write_text("time_s,x,y,z\n0.00,1,,1024\n0.02,3,,1024\n")
        with pytest.raises(ConfigurationError, match="x and y"):
            import_csv(path)

    def test_rate_mismatch_rejected(self, traces, tmp_path):
        path = tmp_path / "trace.csv"
        export_csv(path, traces[0])
        with pytest.raises(ConfigurationError):
            import_csv(path, rate_hz=10.0)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            import_csv(tmp_path / "absent.csv")

    @pytest.mark.parametrize(
        "rows, match",
        [
            ("0.00,1,2,1024\n0.02,1,2\n", "line 3: expected 4 cells"),
            ("0.00,1,2,1024\nnoon,1,2,1024\n", "line 3: time and z"),
            ("0.00,1,2,1024\n0.02,1,2,high\n", "line 3: time and z"),
            ("0.00,1,2,1024\n0.00,1,2,1024\n", "line 3: timestamps"),
            ("0.02,1,2,1024\n0.00,1,2,1024\n", "line 3: timestamps"),
        ],
        ids=["short_row", "text_time", "text_z", "repeated_time", "time_backwards"],
    )
    def test_malformed_rows_rejected(self, tmp_path, rows, match):
        path = tmp_path / "bad.csv"
        path.write_text("time_s,x,y,z\n" + rows)
        with pytest.raises(ConfigurationError, match=match):
            import_csv(path)

    def test_tiny_csv_rejected(self, tmp_path):
        path = tmp_path / "tiny.csv"
        path.write_text("time_s,x,y,z\n0.0,0,0,1024\n")
        with pytest.raises(ConfigurationError):
            import_csv(path)


class TestDetectOnTrace:
    def _burst_trace(self, rng, n=6000):
        z = ACCEL_COUNTS_PER_G + 20.0 * rng.standard_normal(n)
        z[3000:3150] += 400.0  # 3 s burst at t=60 s
        return np.rint(z).astype(np.int64)

    def test_detects_burst(self, rng):
        z = self._burst_trace(rng)
        reports = detect_on_trace(
            z, config=NodeDetectorConfig(m=2.0, af_threshold=0.5)
        )
        assert len(reports) >= 1
        assert any(abs(r.onset_time - 60.0) < 4.0 for r in reports)

    def test_quiet_trace_no_reports(self, rng):
        z = ACCEL_COUNTS_PER_G + 20.0 * rng.standard_normal(6000)
        reports = detect_on_trace(
            np.rint(z).astype(np.int64),
            config=NodeDetectorConfig(m=3.0, af_threshold=0.7),
        )
        assert reports == []

    def test_t0_offsets_report_times(self, rng):
        z = self._burst_trace(rng)
        reports = detect_on_trace(
            z, t0=1000.0, config=NodeDetectorConfig(m=2.0, af_threshold=0.5)
        )
        assert all(r.onset_time > 1000.0 for r in reports)

    def test_default_config_filters_at_the_trace_rate(self):
        # A 25 Hz trace: the default detector must design its low-pass
        # at 25 Hz, or the "1 Hz" cutoff lands at 0.5 Hz and smooths
        # the wake away.
        dep, ship, synth = paper_scenario(seed=9, duration_s=300.0)
        z = synthesize_fleet_traces(dep, [ship], synth, seed=9)[12].z[::2]
        reports = detect_on_trace(z, rate_hz=25.0)
        assert [round(r.onset_time, 1) for r in reports] == [157.2]

    def test_rate_mismatch_rejected(self, rng):
        with pytest.raises(ConfigurationError):
            detect_on_trace(
                np.zeros(1000, dtype=np.int64),
                rate_hz=100.0,
                config=NodeDetectorConfig(rate_hz=50.0),
            )

    def test_full_pipeline_from_saved_file(self, traces, tmp_path, rng):
        """Save synthetic traces, reload, detect — the adopter's loop."""
        path = tmp_path / "deployment.npz"
        save_traces(path, traces)
        back = load_traces(path)
        for trace in back.values():
            detect_on_trace(
                trace.z,
                rate_hz=trace.rate_hz,
                t0=trace.t0,
                config=NodeDetectorConfig(m=2.0, af_threshold=0.6),
            )

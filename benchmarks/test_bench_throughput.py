"""Engineering benchmark — substrate and detector throughput.

Not a paper experiment: tracks how fast the synthetic sea, the
detector, and the CWT run, so performance regressions in the hot paths
are visible.  Unlike the paper benches these use several rounds.
"""

from __future__ import annotations

import time

import numpy as np

from repro.constants import SAMPLE_RATE_HZ
from repro.detection.node_detector import NodeDetectorConfig
from repro.dsp.wavelet import cwt_morlet
from repro.physics.spectrum import SeaState, sea_state_spectrum
from repro.physics.wavefield import AmbientWaveField
from repro.rng import make_rng
from repro.scenario.trace_io import detect_on_trace
from repro.types import Position
from tests.dsp.oracles import timedomain_cwt


def test_bench_wavefield_synthesis(benchmark):
    """Ambient acceleration synthesis at one position: 100 s at 50 Hz,
    96 components, through the one-position batch."""
    spectrum = sea_state_spectrum(SeaState.CALM)
    field = AmbientWaveField(spectrum, n_components=96, seed=1)
    t = np.arange(0, 100, 1 / SAMPLE_RATE_HZ)

    result = benchmark(field.vertical_acceleration_batch, [Position(0, 0)], t)
    assert result.shape == (1, t.size)


def test_bench_detector_throughput(benchmark):
    """Preprocess + detect + merge over a 400 s trace (the one-trace
    path: ``detect_on_trace``'s one-row fleet walk)."""
    rng = make_rng(2)
    z = (1024 + 60 * rng.standard_normal(20000)).astype(np.int64)
    config = NodeDetectorConfig(m=2.0, af_threshold=0.6)

    benchmark(detect_on_trace, z, config=config)


def test_bench_cwt_throughput(benchmark, monkeypatch):
    """Morlet CWT: 60 s of signal over 40 scales."""
    rng = make_rng(3)
    x = rng.standard_normal(3000)
    freqs = np.geomspace(0.1, 5.0, 40)

    result = benchmark(cwt_morlet, x, SAMPLE_RATE_HZ, freqs)
    assert result.power.shape == (40, 3000)

    # The closed-form spectral path must beat the per-scale time-domain
    # oracle by at least 2x on this workload (best of 3 to dodge
    # scheduler noise; filter banks warm for both paths).
    def best_of() -> float:
        times = []
        for _ in range(3):
            start = time.perf_counter()
            cwt_morlet(x, SAMPLE_RATE_HZ, freqs)
            times.append(time.perf_counter() - start)
        return min(times)

    t_spectral = best_of()
    with monkeypatch.context() as mp:
        timedomain_cwt(mp)
        t_reference = best_of()
    speedup = t_reference / t_spectral
    print()
    print(
        f"cwt: spectral {t_spectral * 1e3:.1f} ms, timedomain "
        f"{t_reference * 1e3:.1f} ms, speedup {speedup:.1f}x"
    )
    assert speedup >= 2.0

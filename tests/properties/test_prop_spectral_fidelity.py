"""Property tests: the realised ambient field honours the requested spectrum.

Across sea states and random realisations,

- the realised significant wave height must match the requested
  spectrum's (component amplitudes are drawn deterministically from
  the spectrum, so the agreement is tight and seed-independent);
- grid-snapping must not change the realised Hs at all (only
  frequencies move, never amplitudes);
- the periodogram of a full-period spectral record must recover the
  binned component power exactly (snapped components sit exactly on
  periodogram bins), and the components' incoherent power must
  integrate to the requested spectrum;
- the spectral and time-domain engines agree on any snapped
  realisation.
"""

from __future__ import annotations

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.signal import periodogram

from repro.physics.spectrum import (
    SeaState,
    sea_state_spectrum,
    significant_wave_height,
)
from repro.physics.wavefield import AmbientWaveField, SpectralGrid
from repro.types import Position

DT = 0.02

_seed = st.integers(0, 2**31 - 1)
_sea_state = st.sampled_from(
    [SeaState.CALM, SeaState.MODERATE, SeaState.ROUGH]
)


@given(_seed, _sea_state)
@settings(max_examples=15, deadline=None)
def test_realised_hs_matches_requested_spectrum(seed, sea_state):
    spectrum = sea_state_spectrum(sea_state)
    field = AmbientWaveField(spectrum, n_components=96, seed=seed)
    target = significant_wave_height(spectrum)
    assert abs(field.significant_wave_height() - target) <= 0.02 * target


@given(_seed, _sea_state)
@settings(max_examples=10, deadline=None)
def test_snapping_preserves_hs_exactly(seed, sea_state):
    spectrum = sea_state_spectrum(sea_state)
    plain = AmbientWaveField(spectrum, n_components=64, seed=seed)
    snapped = AmbientWaveField(
        spectrum,
        n_components=64,
        seed=seed,
        spectral_grid=SpectralGrid(n_samples=1024, dt_s=DT),
    )
    assert snapped.significant_wave_height() == plain.significant_wave_height()


@given(_seed, _sea_state)
@settings(max_examples=8, deadline=None)
# Coherent binned power 0.696 and 1.317 of the target: phase-dependent
# extremes, so only the incoherent power is bounded below.
@example(seed=82, sea_state=SeaState.ROUGH)
@example(seed=5237454, sea_state=SeaState.ROUGH)
def test_full_period_psd_matches_requested_spectrum(seed, sea_state):
    spectrum = sea_state_spectrum(sea_state)
    field = AmbientWaveField(
        spectrum,
        n_components=96,
        seed=seed,
        spectral_grid=SpectralGrid(n_samples=4096, dt_s=DT, oversample=2),
    )
    grid_df = field.frequency_grid_hz
    assert grid_df is not None
    fft_length = int(round(1.0 / (grid_df * DT)))
    t = np.arange(fft_length) * DT
    eta = field.elevation_batch([Position(0.0, 0.0)], t, method="spectral")[0]
    freqs, pxx = periodogram(eta, fs=1.0 / DT)
    df_p = float(freqs[1] - freqs[0])

    # At the origin each component contributes ``a_i e^{j phi_i}`` to
    # its bin (coherently where bins collide), so the full-period
    # periodogram's band power is *exactly* the binned component power.
    binned: dict[int, complex] = {}
    for c in field.components:
        b = int(round(c.frequency_hz / grid_df))
        binned[b] = binned.get(b, 0.0 + 0.0j) + c.amplitude * np.exp(
            1j * c.phase_rad
        )

    def band_power(lo: float, hi: float) -> float:
        mask = (freqs >= lo) & (freqs < hi)
        return float(np.sum(pxx[mask]) * df_p)

    def band_expected(lo: float, hi: float) -> float:
        return sum(
            0.5 * abs(amp) ** 2
            for b, amp in binned.items()
            if lo <= b * grid_df < hi
        )

    total_expected = band_expected(0.0, 2.0)
    assert np.isclose(
        band_power(0.0, 25.0), total_expected, rtol=1e-9, atol=0.0
    )
    for lo, hi in [(0.05, 0.2), (0.2, 0.6), (0.6, 1.4)]:
        expected = band_expected(lo, hi)
        if expected < 1e-3 * total_expected:
            continue
        assert np.isclose(band_power(lo, hi), expected, rtol=1e-9, atol=0.0)

    # And the realised power must integrate to the requested spectrum.
    # Components that snap into one bin add as phasors, so the coherent
    # binned power above depends on their random phases (0.54-1.39x the
    # target over seeds for ROUGH).  The incoherent power sum(a_i^2 / 2)
    # does not: amplitudes come from the spectrum at the comb's bin
    # centres, so it is the comb's quadrature of the target.
    target = quad(
        lambda x: float(spectrum.density(np.array([x]))[0]),
        0.03,
        1.5,
        limit=200,
    )[0]
    incoherent = sum(0.5 * c.amplitude**2 for c in field.components)
    assert abs(incoherent / target - 1.0) <= 0.01


@given(_seed, _sea_state, st.integers(2, 5))
@settings(max_examples=10, deadline=None)
def test_engines_agree_on_random_realisations(seed, sea_state, n_pos):
    spectrum = sea_state_spectrum(sea_state)
    field = AmbientWaveField(
        spectrum,
        n_components=32,
        seed=seed,
        spectral_grid=SpectralGrid(n_samples=512, dt_s=DT),
    )
    positions = [Position(37.0 * i, -21.0 * i) for i in range(n_pos)]
    t = np.arange(512) * DT
    td = field.vertical_acceleration_batch(positions, t)
    sp = field.vertical_acceleration_batch(positions, t, method="spectral")
    scale = max(float(np.abs(td).max()), 1e-12)
    assert np.allclose(sp, td, rtol=0.0, atol=1e-9 * scale)

"""Cross-validation of the wave-field synthesis against its inputs.

A random-phase realisation must, measured back with standard spectral
tools, reproduce the spectrum it was built from — the closed loop that
validates amplitudes, phases and the acceleration derivation together.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy import signal as sp_signal

from repro.physics.spectrum import PiersonMoskowitzSpectrum
from repro.physics.wavefield import AmbientWaveField
from repro.types import Position


@pytest.fixture(scope="module")
def realisation():
    spectrum = PiersonMoskowitzSpectrum(5.0)
    field = AmbientWaveField(
        spectrum, n_components=192, f_max_hz=1.2, seed=11
    )
    t = np.arange(0, 3000, 0.05)  # 50 minutes at 20 Hz
    eta = field.elevation_batch([Position(0, 0)], t)[0]
    return spectrum, field, t, eta


def test_measured_psd_matches_input_spectrum(realisation):
    spectrum, _, t, eta = realisation
    fs = 1.0 / (t[1] - t[0])
    f, psd = sp_signal.welch(eta, fs=fs, nperseg=4096)
    band = (f > 0.15) & (f < 0.6)
    target = spectrum.density(f[band])
    measured = psd[band]
    # Bin-averaged ratio near 1 (random-phase realisation noise allows
    # a generous band).
    ratio = measured.sum() / target.sum()
    assert 0.7 < ratio < 1.3


def test_variance_matches_m0(realisation):
    spectrum, _, _, eta = realisation
    from repro.physics.spectrum import spectral_moment

    m0 = spectral_moment(spectrum, 0)
    assert eta.var() == pytest.approx(m0, rel=0.25)


def test_acceleration_psd_weighted_by_omega4(realisation):
    spectrum, field, t, _ = realisation
    fs = 1.0 / (t[1] - t[0])
    accel = field.vertical_acceleration_batch([Position(0, 0)], t)[0]
    f, psd_a = sp_signal.welch(accel, fs=fs, nperseg=4096)
    band = (f > 0.2) & (f < 0.5)
    expected = spectrum.density(f[band]) * (2 * np.pi * f[band]) ** 4
    ratio = psd_a[band].sum() / expected.sum()
    assert 0.7 < ratio < 1.3


def test_rayleigh_crest_statistics(realisation):
    """Linear random seas have Rayleigh-distributed envelope maxima:
    P(crest > 2 sigma_eta) ~ exp(-2) per wave."""
    _, _, t, eta = realisation
    sigma = eta.std()
    # Zero-upcrossing waves.
    signs = np.sign(eta)
    upcrossings = np.flatnonzero((signs[:-1] < 0) & (signs[1:] >= 0))
    crests = []
    for a, b in zip(upcrossings, upcrossings[1:]):
        crests.append(eta[a:b].max())
    crests = np.array(crests)
    frac_big = np.mean(crests > 2.0 * sigma)
    assert frac_big == pytest.approx(np.exp(-2.0), abs=0.08)

"""Spectral-domain CWT must match the time-domain reference.

``cwt_morlet`` evaluates the closed-form Fourier transform of the
Morlet; the oracle (:mod:`tests.dsp.oracles`) samples, truncates and
FFT-convolves each kernel.  On any signal the two must agree far inside
the acceptance tolerance (rtol 1e-6 of the peak power) — white noise
exercises every frequency at once, a crossing chirp exercises scale
localisation, and a Kelvin wake packet is the signal the detector
actually hunts.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.dsp.wavelet import (
    _morlet_filter_bank,
    cwt_morlet,
)
from repro.physics.wake_train import WakeTrain
from tests.dsp.oracles import timedomain_cwt

RATE = 50.0
FREQS = np.geomspace(0.1, 5.0, 24)


@pytest.fixture
def assert_paths_agree(monkeypatch):
    def check(x: np.ndarray, freqs=FREQS, rtol: float = 1e-6):
        spectral = cwt_morlet(x, RATE, frequencies_hz=freqs)
        with monkeypatch.context() as mp:
            timedomain_cwt(mp)
            reference = cwt_morlet(x, RATE, frequencies_hz=freqs)
        _compare(spectral, reference, rtol)

    return check


def _compare(spectral, reference, rtol: float) -> None:
    peak = reference.power.max()
    err = np.abs(spectral.power - reference.power).max()
    assert err < rtol * peak, f"max deviation {err:.3e} vs peak {peak:.3e}"
    assert np.array_equal(spectral.times_s, reference.times_s)
    assert np.array_equal(
        spectral.frequencies_hz, reference.frequencies_hz
    )


def test_equivalence_on_white_noise(assert_paths_agree):
    rng = np.random.default_rng(11)
    assert_paths_agree(rng.standard_normal(3000))


def test_equivalence_on_chirp(assert_paths_agree):
    t = np.arange(0.0, 60.0, 1.0 / RATE)
    # 0.2 -> 3 Hz linear sweep crossing most analysis scales.
    x = np.sin(2.0 * np.pi * (0.2 * t + 0.5 * (2.8 / 60.0) * t**2))
    assert_paths_agree(x)


def test_equivalence_on_wake_packet(assert_paths_agree):
    t = np.arange(0.0, 120.0, 1.0 / RATE)
    train = WakeTrain(
        arrival_time=50.0,
        amplitude=0.05,
        period=1.8,
        duration=3.0,
        chirp=-0.04,
    )
    rng = np.random.default_rng(23)
    x = train.vertical_acceleration(t) + 0.01 * rng.standard_normal(t.size)
    assert_paths_agree(x)


def test_equivalence_across_seeds_and_lengths(assert_paths_agree):
    for seed, n in ((1, 500), (2, 1777), (3, 4096)):
        rng = np.random.default_rng(seed)
        assert_paths_agree(rng.standard_normal(n), freqs=FREQS[::4])


def test_oracle_swaps_the_engine(monkeypatch):
    # Guards the equivalence tests above against a patch that silently
    # stops taking effect: the engines differ in their last bits.
    x = np.random.default_rng(5).standard_normal(1000)
    spectral = cwt_morlet(x, RATE, frequencies_hz=FREQS)
    timedomain_cwt(monkeypatch)
    reference = cwt_morlet(x, RATE, frequencies_hz=FREQS)
    assert not np.array_equal(spectral.power, reference.power)
    _compare(spectral, reference, rtol=1e-6)


def test_filter_bank_is_cached_across_calls():
    rng = np.random.default_rng(9)
    before = _morlet_filter_bank.cache_info()
    x1 = rng.standard_normal(2048)
    x2 = rng.standard_normal(2048)
    cwt_morlet(x1, RATE, frequencies_hz=FREQS)
    cwt_morlet(x2, RATE, frequencies_hz=FREQS)
    after = _morlet_filter_bank.cache_info()
    # Equal-length transforms at the same grid reuse the cached bank.
    assert after.hits > before.hits

"""Property tests: the realised ambient field honours the requested spectrum.

Across sea states and random realisations,

- the realised significant wave height must match the requested
  spectrum's (component amplitudes are drawn deterministically from
  the spectrum, so the agreement is tight and seed-independent);
- the components' incoherent power must integrate to the requested
  spectrum.
"""

from __future__ import annotations

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from repro.physics.spectrum import (
    SeaState,
    sea_state_spectrum,
    significant_wave_height,
)
from repro.physics.wavefield import AmbientWaveField

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
@settings(max_examples=8, deadline=None)
# Seeds whose coherent (phase-dependent) binned power sat at 0.696 and
# 1.317 of the target; the incoherent power must not move with them.
@example(seed=82, sea_state=SeaState.ROUGH)
@example(seed=5237454, sea_state=SeaState.ROUGH)
def test_incoherent_power_matches_requested_spectrum(seed, sea_state):
    # The incoherent power sum(a_i^2 / 2) does not depend on the random
    # phases: amplitudes come from the spectrum at the comb's bin
    # centres, so it is the comb's quadrature of the target.
    spectrum = sea_state_spectrum(sea_state)
    field = AmbientWaveField(spectrum, n_components=96, seed=seed)
    target = quad(
        lambda x: float(spectrum.density(np.array([x]))[0]),
        0.03,
        1.5,
        limit=200,
    )[0]
    incoherent = sum(0.5 * c.amplitude**2 for c in field.components)
    assert abs(incoherent / target - 1.0) <= 0.01

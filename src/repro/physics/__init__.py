"""Ocean and ship-wake physics substrate.

The paper evaluates SID on accelerometer traces recorded by buoys at
sea.  We do not have that sea, so this package synthesises it:

- :mod:`repro.physics.spectrum` — the ambient ocean wave spectrum
  (Pierson–Moskowitz) and named sea states;
- :mod:`repro.physics.wavefield` — random-phase superposition of
  deep-water (Airy) spectral components into a space–time ambient wave
  field;
- :mod:`repro.physics.kelvin` — the Kelvin ship-wake model: cusp
  geometry (19°28′), Froude number, decay laws (paper eq. 1) and wake
  wave speed (paper eq. 2);
- :mod:`repro.physics.wake_train` — the finite wave train a passing
  ship inflicts on a fixed observation point;
- :mod:`repro.physics.buoy` — buoy dynamics: heave, tilt and mooring
  drift, turning surface motion into what an on-buoy accelerometer feels;
- :mod:`repro.physics.disturbance` — non-ship disturbances (wind gusts,
  birds, fish) used for false-alarm experiments.
"""

from repro.physics.buoy import Buoy, BuoyMotion
from repro.physics.disturbance import (
    BirdStrike,
    Disturbance,
    FishBump,
    WindGust,
    render_disturbances,
)
from repro.physics.kelvin import (
    KelvinWake,
    cusp_wave_period,
    depth_froude_number,
    wake_propagation_angle_deg,
    wake_wave_speed,
)
from repro.physics.spectrum import (
    PiersonMoskowitzSpectrum,
    SeaState,
    sea_state_spectrum,
)
from repro.physics.wake_train import WakeTrain
from repro.physics.wavefield import AmbientWaveField, WaveComponent

__all__ = [
    "AmbientWaveField",
    "BirdStrike",
    "Buoy",
    "BuoyMotion",
    "Disturbance",
    "FishBump",
    "KelvinWake",
    "PiersonMoskowitzSpectrum",
    "SeaState",
    "WakeTrain",
    "WaveComponent",
    "WindGust",
    "cusp_wave_period",
    "depth_froude_number",
    "render_disturbances",
    "sea_state_spectrum",
    "wake_propagation_angle_deg",
    "wake_wave_speed",
]

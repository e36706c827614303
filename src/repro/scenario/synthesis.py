"""Per-buoy accelerometer trace synthesis.

This is the stand-in for the paper's sea trials: for every deployed
node it composes

``surface acceleration = ambient field + ship wake trains + disturbances``

evaluates the buoy's specific-force response, and digitises it through
the mote's accelerometer — producing the 50 Hz raw-count
:class:`~repro.types.AccelTrace` the detection pipeline treats exactly
as the paper treats its recorded data.

The wake train at each node is evaluated at the buoy's *drifted*
position at wake-arrival time, so the ~2 m mooring error the paper
blames for its speed-estimation spread (Sec. V-B.2) propagates into
the timestamps here too.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.physics.disturbance import Disturbance, render_disturbances
from repro.physics.kelvin import KelvinWake
from repro.physics.spectrum import SeaState, sea_state_spectrum
from repro.physics.wake_train import WakeTrain
from repro.physics.wavefield import AmbientWaveField, SpectralGrid
from repro.rng import RandomState, derive_rng, make_rng
from repro.scenario.deployment import DeployedNode, GridDeployment
from repro.scenario.ship import ShipTrack
from repro.types import AccelTrace


#: Ambient synthesis engines a :class:`SynthesisConfig` can select.
#: ``"timedomain"`` is the historical realisation (unsnapped
#: frequencies, time-domain evaluation); ``"spectral"`` snaps the
#: realised components onto an oversampled FFT grid and contracts the
#: fleet with one batched inverse real FFT.
SYNTHESIS_METHODS = ("timedomain", "spectral")


@dataclass(frozen=True)
class SynthesisConfig:
    """Scenario-wide synthesis parameters."""

    duration_s: float = 400.0
    t0: float = 0.0
    sea_state: SeaState = SeaState.CALM
    n_wave_components: int = 96
    #: Dispersive chirp of the wake packet (fraction of the carrier).
    wake_chirp_fraction: float = -0.08
    include_horizontal: bool = False
    #: Ambient evaluation engine (one of :data:`SYNTHESIS_METHODS`).
    synthesis_method: str = "timedomain"
    #: Minimum FFT-grid bins per component spacing for the spectral
    #: engine (see :class:`~repro.physics.wavefield.SpectralGrid`).
    spectral_oversample: int = 4

    def __post_init__(self) -> None:
        if self.duration_s <= 0:
            raise ConfigurationError(
                f"duration must be positive, got {self.duration_s}"
            )
        if self.n_wave_components < 1:
            raise ConfigurationError("need at least one wave component")
        if self.synthesis_method not in SYNTHESIS_METHODS:
            raise ConfigurationError(
                "synthesis_method must be one of "
                f"{SYNTHESIS_METHODS}, got {self.synthesis_method!r}"
            )
        if self.spectral_oversample < 1:
            raise ConfigurationError(
                "spectral_oversample must be >= 1, got "
                f"{self.spectral_oversample}"
            )

    @property
    def snaps_frequencies(self) -> bool:
        """Whether this config realises the field on an FFT grid."""
        return self.synthesis_method == "spectral"


def build_ambient_field(
    config: SynthesisConfig,
    seed: RandomState = None,
    spectral_grid: SpectralGrid | None = None,
) -> AmbientWaveField:
    """The scenario's shared ambient wave-field realisation.

    ``spectral_grid`` realises the field's components on that FFT grid
    (required for the snapping ``"spectral"`` method); the
    RNG draw sequence is identical either way, so a snapped and an
    unsnapped field from one seed share phases, directions and
    amplitudes and differ only by the <= df/2 frequency snap.
    """
    spectrum = sea_state_spectrum(config.sea_state)
    return AmbientWaveField(
        spectrum,
        n_components=config.n_wave_components,
        seed=seed,
        spectral_grid=spectral_grid,
    )


def fleet_spectral_grid(
    config: SynthesisConfig, t: np.ndarray
) -> SpectralGrid | None:
    """The :class:`SpectralGrid` a config realises its field on.

    ``None`` for the pure time-domain method.  ``t`` is the fleet's
    shared sample grid; the snapping method needs at least two samples
    on it.
    """
    if not config.snaps_frequencies:
        return None
    if t.size < 2:
        raise ConfigurationError(
            f"{config.synthesis_method!r} synthesis needs >= 2 samples, "
            f"got {t.size}"
        )
    return SpectralGrid(
        n_samples=int(t.size),
        dt_s=float(t[1] - t[0]),
        oversample=config.spectral_oversample,
    )


def fleet_sample_grid(
    nodes: Sequence[DeployedNode], config: SynthesisConfig
) -> np.ndarray:
    """The one sample grid every mote of a fleet shares.

    Fleet synthesis evaluates the ambient field once on this grid and
    every runner walks one Delta-t window grid across the fleet, so
    motes sampling on different grids raise :class:`ConfigurationError`.
    """
    grids = [n.mote.sample_instants(config.t0, config.duration_s) for n in nodes]
    if any(not np.array_equal(g, grids[0]) for g in grids[1:]):
        raise ConfigurationError(
            "fleet synthesis needs one shared fleet sample grid; this "
            "deployment's motes sample on different grids"
        )
    return grids[0]


def wake_trains_for_node(
    node: DeployedNode,
    ships: Sequence[ShipTrack],
    config: SynthesisConfig,
    wakes: Sequence[KelvinWake] | None = None,
) -> list[WakeTrain]:
    """The wake packets the ships inflict on one node.

    Each packet is evaluated at the buoy's drifted position at the
    (anchor-based) arrival time — the position error then feeds back
    into the packet's own timing and amplitude.

    ``wakes`` optionally supplies the ships' already-built
    :class:`~repro.physics.kelvin.KelvinWake` objects (one per ship, in
    order); the fleet path builds each wake once per scenario instead of
    once per node.
    """
    if wakes is None:
        wakes = [ship.wake() for ship in ships]
    trains: list[WakeTrain] = []
    for wake in wakes:
        nominal_arrival = wake.arrival_time(node.anchor)
        drifted = node.buoy.position_at(nominal_arrival)
        trains.append(
            WakeTrain.from_wake(
                wake, drifted, chirp_fraction=config.wake_chirp_fraction
            )
        )
    return trains


def _finish_node_trace(
    node: DeployedNode,
    t: np.ndarray,
    az: np.ndarray,
    trains: Sequence[WakeTrain],
    disturbances: Iterable[Disturbance],
    horizontal: tuple[np.ndarray, np.ndarray] | None,
) -> AccelTrace:
    """Compose wakes and disturbances onto an ambient row and digitise.

    The buoy's mechanical heave response filters what the mote feels:
    ambient components are weighted per frequency (already applied to
    ``az``); wake packets and impulsive disturbances are scaled at
    their carrier frequency.
    """
    for train in trains:
        gain = float(node.buoy.heave_gain(train.carrier_frequency_hz))
        az = az + gain * train.vertical_acceleration(t)
    extra = render_disturbances(disturbances, t)
    if extra.shape == t.shape:
        az = az + extra
    if horizontal is not None:
        motion = node.buoy.specific_force(t, az, horizontal)
    else:
        motion = node.buoy.specific_force(t, az)
    return node.mote.record(motion)


def synthesize_node_trace(
    node: DeployedNode,
    field: AmbientWaveField,
    ships: Sequence[ShipTrack] = (),
    disturbances: Iterable[Disturbance] = (),
    config: SynthesisConfig | None = None,
    wakes: Sequence[KelvinWake] | None = None,
) -> AccelTrace:
    """One node's full raw-count trace for the scenario."""
    cfg = config if config is not None else SynthesisConfig()
    t = node.mote.sample_instants(cfg.t0, cfg.duration_s)
    az = field.vertical_acceleration(
        node.anchor, t, response=node.buoy.heave_gain
    )
    horizontal = (
        field.horizontal_acceleration(node.anchor, t)
        if cfg.include_horizontal
        else None
    )
    return _finish_node_trace(
        node,
        t,
        az,
        wake_trains_for_node(node, ships, cfg, wakes=wakes),
        disturbances,
        horizontal,
    )


def synthesize_fleet_traces(
    deployment: GridDeployment,
    ships: Sequence[ShipTrack] = (),
    config: SynthesisConfig | None = None,
    disturbances_by_node: dict[int, list[Disturbance]] | None = None,
    seed: RandomState = None,
) -> dict[int, AccelTrace]:
    """Traces for every node of a deployment, sharing one ambient field.

    The ambient contribution is synthesised for the whole fleet at
    once.  Under the default ``synthesis_method="timedomain"`` that is
    :meth:`AmbientWaveField.vertical_acceleration_batch`: each node
    reduces to weights on fleet-shared ``cos(w t)`` / ``sin(w t)``
    terms, summed on the sample grid by block angle addition.
    ``"spectral"`` snaps the realised components onto an FFT grid and
    contracts the fleet with one batched inverse real FFT instead
    (~3x on the 64-node / 400 s ambient kernel).  Each ship's Kelvin
    wake is built once per scenario rather than once per node.

    The motes must share one sample grid (:func:`fleet_sample_grid`);
    the check runs before any mote records, so a rejected call bills
    no battery.
    """
    cfg = config if config is not None else SynthesisConfig()
    base = make_rng(seed)
    root = int(base.integers(2**31))
    disturbances_by_node = disturbances_by_node or {}
    nodes = list(deployment)
    wakes = [ship.wake() for ship in ships]
    if not nodes:
        return {}
    t = fleet_sample_grid(nodes, cfg)
    field = build_ambient_field(
        cfg,
        seed=derive_rng(root, "ambient"),
        spectral_grid=fleet_spectral_grid(cfg, t),
    )
    az_all = field.vertical_acceleration_batch(
        [n.anchor for n in nodes],
        t,
        responses=[n.buoy.heave_gain for n in nodes],
        method=cfg.synthesis_method,
    )
    h_all = (
        field.horizontal_acceleration_batch(
            [n.anchor for n in nodes], t, method=cfg.synthesis_method
        )
        if cfg.include_horizontal
        else None
    )
    return {
        node.node_id: _finish_node_trace(
            node,
            t,
            az_all[i],
            wake_trains_for_node(node, ships, cfg, wakes=wakes),
            disturbances_by_node.get(node.node_id, []),
            (h_all[0][i], h_all[1][i]) if h_all is not None else None,
        )
        for i, node in enumerate(nodes)
    }


def random_disturbances(
    deployment: GridDeployment,
    config: SynthesisConfig,
    gusts_per_node_hour: float = 6.0,
    bumps_per_node_hour: float = 4.0,
    gust_rms_accel: float = 0.5,
    bump_peak_accel: float = 2.0,
    seed: RandomState = None,
) -> dict[int, list[Disturbance]]:
    """Poisson-sprinkled nuisance events, independent across nodes.

    These are the false-alarm sources of Sec. IV-C (wind flurries,
    birds, fish) — spatially uncorrelated by construction, which is
    precisely why Table I's correlation coefficient stays near zero.
    """
    from repro.physics.disturbance import FishBump, WindGust

    rng = make_rng(seed)
    hours = config.duration_s / 3600.0
    out: dict[int, list[Disturbance]] = {}
    for node in deployment:
        events: list[Disturbance] = []
        n_gusts = rng.poisson(gusts_per_node_hour * hours)
        for _ in range(n_gusts):
            start = float(rng.uniform(config.t0, config.t0 + config.duration_s))
            events.append(
                WindGust(
                    start=start,
                    duration=float(rng.uniform(3.0, 10.0)),
                    rms_accel=float(rng.uniform(0.5, 1.5)) * gust_rms_accel,
                    seed=int(rng.integers(2**31)),
                )
            )
        n_bumps = rng.poisson(bumps_per_node_hour * hours)
        for _ in range(n_bumps):
            events.append(
                FishBump(
                    time=float(
                        rng.uniform(config.t0, config.t0 + config.duration_s)
                    ),
                    peak_accel=float(rng.uniform(0.5, 1.5)) * bump_peak_accel,
                )
            )
        out[node.node_id] = events
    return out

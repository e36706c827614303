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

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.physics.buoy import Buoy, BuoyMotion
from repro.physics.disturbance import Disturbance, render_disturbances
from repro.physics.kelvin import KelvinWake
from repro.physics.sinusoids import BLOCK as SINUSOID_BLOCK
from repro.physics.spectrum import SeaState, sea_state_spectrum
from repro.physics.wake_train import WakeTrain
from repro.physics.wavefield import AmbientWaveField
from repro.rng import RandomState, derive_rng, make_rng
from repro.scenario.deployment import DeployedNode, GridDeployment
from repro.scenario.ship import ShipTrack
from repro.sensors.sampler import Sampler
from repro.types import AccelTrace

#: Byte budget of one row block of :func:`synthesize_fleet_traces`:
#: the ambient sea is evaluated for as many nodes at a time as fit this
#: many bytes of float64 samples (8 nodes of a 400 s, 50 Hz record),
#: and those nodes are recorded before the next block starts, so no
#: (nodes x samples) float64 slab is ever held.  Every block repeats the
#: ambient batch's per-call trig: 8-row blocks add ~2 % to a 30-node
#: synthesis, 4-row blocks ~7 % (DESIGN.md §10).
AMBIENT_BLOCK_BYTES = 1_310_720

#: Sinusoidal components of a scenario's ambient sea.
N_WAVE_COMPONENTS = 96


@dataclass(frozen=True)
class SynthesisConfig:
    """Scenario-wide synthesis parameters."""

    duration_s: float = 400.0
    t0: float = 0.0
    sea_state: SeaState = SeaState.CALM
    #: Add the ambient surface's horizontal acceleration and record the
    #: x and y axes too (Fig. 5).  Off, each buoy projects and each
    #: mote digitises z alone, the one axis detection reads; the
    #: traces' ``x``/``y`` are then ``None``, and every z count, noise
    #: stream and battery ends as it would with the axes recorded.
    include_horizontal: bool = False

    def __post_init__(self) -> None:
        if self.duration_s <= 0:
            raise ConfigurationError(
                f"duration must be positive, got {self.duration_s}"
            )


def build_ambient_field(
    config: SynthesisConfig, seed: RandomState = None
) -> AmbientWaveField:
    """The scenario's shared ambient wave-field realisation."""
    spectrum = sea_state_spectrum(config.sea_state)
    return AmbientWaveField(spectrum, n_components=N_WAVE_COMPONENTS, seed=seed)


def fleet_ambient_field(
    config: SynthesisConfig, seed: RandomState = None
) -> AmbientWaveField:
    """The ambient sea a fleet synthesised from ``seed`` shares.

    Both fleet synthesizers derive their field here, so one seed
    realises one sea whether the fleet is recorded whole
    (:func:`synthesize_fleet_traces`) or streamed in chunks
    (:class:`~repro.scenario.streaming.StreamingFleetSynthesizer`).
    """
    root = int(make_rng(seed).integers(2**31))
    return build_ambient_field(config, seed=derive_rng(root, "ambient"))


def fleet_sampler(nodes: Sequence[DeployedNode]) -> Sampler:
    """The sampler whose one sample grid every mote of a fleet shares.

    Fleet synthesis evaluates the ambient field once on one grid and
    every runner walks one Delta-t window grid across the fleet.  A
    grid depends only on the start time, the duration and the rate, so
    motes sampling at different rates raise :class:`ConfigurationError`.
    """
    sampler = nodes[0].mote.sampler
    if any(node.mote.sampler.rate_hz != sampler.rate_hz for node in nodes[1:]):
        raise ConfigurationError(
            "fleet synthesis needs one shared fleet sample grid; this "
            "deployment's motes sample on different grids"
        )
    return sampler


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
        trains.append(WakeTrain.from_wake(wake, drifted))
    return trains


def heave_gained_wake_trains(
    node: DeployedNode,
    ships: Sequence[ShipTrack],
    config: SynthesisConfig,
    wakes: Sequence[KelvinWake] | None = None,
) -> list[tuple[float, WakeTrain]]:
    """Each wake packet one node feels, with the buoy's heave gain.

    The buoy's mechanical heave response filters what the mote feels:
    the ambient batch weights every component per frequency, while a
    wake packet is scaled once, at its carrier frequency.
    """
    return [
        (float(node.buoy.heave_gain(train.carrier_frequency_hz)), train)
        for train in wake_trains_for_node(node, ships, config, wakes=wakes)
    ]


def add_wakes_and_disturbances(
    az: np.ndarray,
    t: np.ndarray,
    wakes: Sequence[tuple[float, WakeTrain]],
    disturbances: Iterable[Disturbance],
) -> np.ndarray:
    """One node's surface vertical acceleration on ``t`` [m/s^2].

    Adds the heave-gained wake packets (:func:`heave_gained_wake_trains`)
    and the impulsive disturbances onto the node's ambient row ``az``.
    Every term is a function of the sample instant, so ``t`` may be the
    whole record or any chunk of it.
    """
    for gain, train in wakes:
        az = az + gain * train.vertical_acceleration(t)
    return az + render_disturbances(disturbances, t)


def _record_fleet(
    nodes: Sequence[DeployedNode],
    field: AmbientWaveField,
    t: np.ndarray,
    ships: Sequence[ShipTrack],
    config: SynthesisConfig,
    disturbances: Sequence[Iterable[Disturbance]],
) -> list[AccelTrace]:
    """Record every node on the shared sample grid ``t``.

    The ambient term is one batch per row block of nodes
    (:data:`AMBIENT_BLOCK_BYTES`); each node of the block then adds its
    wakes and its ``disturbances`` entry, the block's buoys project it
    in one :meth:`~repro.physics.buoy.Buoy.specific_force` call, and
    each mote digitises its row (z only unless
    ``config.include_horizontal``).  Each ship's Kelvin wake is built
    once, not per node.

    A row of the ambient GEMM does not depend on the rows beside it
    once the product spans whole sinusoid blocks, which every record
    longer than one block does; numpy and BLAS round a narrower product
    differently for different row counts, so a record within one block
    (4 s at 50 Hz) is evaluated for the whole fleet at once.
    """
    step = (
        max(AMBIENT_BLOCK_BYTES // t.nbytes, 1)
        if t.size > SINUSOID_BLOCK
        else len(nodes)
    )
    wakes = [ship.wake() for ship in ships]
    traces = []
    for lo in range(0, len(nodes), step):
        block = nodes[lo : lo + step]
        anchors = [n.anchor for n in block]
        az_block = field.vertical_acceleration_batch(
            anchors, t, responses=[n.buoy.heave_gain for n in block]
        )
        h_block = (
            field.horizontal_acceleration_batch(anchors, t)
            if config.include_horizontal
            else None
        )
        for i, node in enumerate(block):
            az_block[i] = add_wakes_and_disturbances(
                az_block[i],
                t,
                heave_gained_wake_trains(node, ships, config, wakes=wakes),
                disturbances[lo + i],
            )
        fz, fx, fy = Buoy.specific_force(
            [n.buoy for n in block], t, az_block, h_block
        )
        for i, node in enumerate(block):
            if fx is None or fy is None:
                motion = BuoyMotion(t=t, fx=None, fy=None, fz=fz[i])
            else:
                motion = BuoyMotion(t=t, fx=fx[i], fy=fy[i], fz=fz[i])
            traces.append(node.mote.record(motion))
    return traces


def synthesize_node_trace(
    node: DeployedNode,
    field: AmbientWaveField,
    ships: Sequence[ShipTrack] = (),
    disturbances: Iterable[Disturbance] = (),
    config: SynthesisConfig | None = None,
) -> AccelTrace:
    """One node's full raw-count trace: the fleet path on a one-node fleet."""
    cfg = config if config is not None else SynthesisConfig()
    t = node.mote.sample_instants(cfg.t0, cfg.duration_s)
    (trace,) = _record_fleet([node], field, t, ships, cfg, [disturbances])
    return trace


def synthesize_fleet_traces(
    deployment: GridDeployment,
    ships: Sequence[ShipTrack] = (),
    config: SynthesisConfig | None = None,
    disturbances_by_node: dict[int, list[Disturbance]] | None = None,
    seed: RandomState = None,
) -> dict[int, AccelTrace]:
    """Traces for every node of a deployment, sharing one ambient field.

    The ambient contribution is synthesised a row block of nodes at a
    time (:meth:`AmbientWaveField.vertical_acceleration_batch`): each
    node reduces to weights on fleet-shared ``cos(w t)`` / ``sin(w t)``
    terms, summed on the sample grid by block angle addition.  A block
    is recorded before the next one starts, so the call holds the
    traces and one block's float64 rows, and every count equals the
    whole-fleet batch's bit for bit.

    The motes must share one sample grid (:func:`fleet_sampler`); the
    check runs before any mote records, so a rejected call bills no
    battery.
    """
    cfg = config if config is not None else SynthesisConfig()
    nodes = list(deployment)
    if not nodes:
        return {}
    t = fleet_sampler(nodes).instants(cfg.t0, cfg.duration_s)
    dmap = disturbances_by_node or {}
    traces = _record_fleet(
        nodes,
        fleet_ambient_field(cfg, seed),
        t,
        ships,
        cfg,
        [dmap.get(n.node_id, []) for n in nodes],
    )
    return {n.node_id: trace for n, trace in zip(nodes, traces)}


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

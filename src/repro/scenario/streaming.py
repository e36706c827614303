"""Streaming synthesis -> detection fusion (O(nodes x chunk) memory).

The offline runner materialises every node's full trace, preprocesses
it, then walks the windows — peak memory O(nodes x duration).  For
long scenarios (or large fleets) the synthesis output can instead feed
detection *chunk by chunk*: :class:`StreamingFleetSynthesizer` produces
``(nodes, chunk)`` blocks of raw z counts on demand, a
:class:`~repro.detection.preprocess.StreamingPreprocessor` conditions
them with carried filter state, and a
:class:`~repro.detection.fleet.FleetStream` evaluates every Delta-t
window as soon as its samples exist, retaining only a window-sized
tail.  Peak memory is then O(nodes x chunk), independent of duration.

Chunking invariants:

- every synthesis term (ambient sinusoid sums, wake packets,
  disturbances, the buoy's tilt projection) is a function of the
  sample instant, so per-chunk evaluation reproduces the monolithic
  arrays up to BLAS reduction order and the block angle-addition
  rounding of :func:`~repro.physics.sinusoids.grid_sinusoid_sum`
  (both absorbed by the accelerometer's integer quantisation);
- each mote's z-axis noise comes from a generator clone advanced to
  the z position of its three-axis read
  (:meth:`~repro.sensors.accelerometer.Accelerometer.axis_noise_rng`),
  and the generator's normal stream is split-invariant, so chunked
  draws equal the monolithic read's draws bit for bit;
- the causal Butterworth and the fleet window walk carry exact state
  across chunks.

The zero-phase ``"butter"`` preprocessing filter is global (its
backward pass is anti-causal), so streaming requires one of the
:data:`~repro.detection.preprocess.STREAMABLE_FILTER_KINDS`
(``"butter-causal"``).
"""

from __future__ import annotations

import itertools
from typing import Iterator, Optional, Sequence

import numpy as np

from repro.detection.fleet import FleetDetector
from repro.detection.node_detector import NodeDetectorConfig
from repro.detection.preprocess import (
    STREAMABLE_FILTER_KINDS,
    StreamingPreprocessor,
)
from repro.errors import ConfigurationError
from repro.physics.buoy import Buoy
from repro.rng import RandomState
from repro.scenario.deployment import GridDeployment
from repro.scenario.runner import OfflineScenarioResult, fuse_offline_reports
from repro.scenario.ship import ShipTrack
from repro.scenario.synthesis import (
    SynthesisConfig,
    add_wakes_and_disturbances,
    fleet_ambient_field,
    fleet_sampler,
    heave_gained_wake_trains,
)
from repro.telemetry.tracer import Tracer, maybe_stage


class StreamingFleetSynthesizer:
    """Produce a fleet's raw z-count traces in ``(nodes, chunk)`` blocks.

    Draws the exact random realisation :func:`synthesize_fleet_traces`
    would without nuisance disturbances (same seed derivation, same
    ambient field, same per-device noise streams); only the z axis is
    digitised, which is all the detection pipeline consumes.  Of the
    record's sample grid it keeps only the start time, rate and sample
    count: each chunk builds its own instants.
    """

    def __init__(
        self,
        deployment: GridDeployment,
        ships: Sequence[ShipTrack] = (),
        config: SynthesisConfig | None = None,
        seed: RandomState = None,
    ) -> None:
        cfg = config if config is not None else SynthesisConfig()
        if cfg.include_horizontal:
            raise ConfigurationError(
                "streaming synthesis digitises only the z axis; "
                "include_horizontal needs the monolithic path"
            )
        self.config = cfg
        self.nodes = list(deployment)
        if not self.nodes:
            raise ConfigurationError("empty deployment")
        sampler = fleet_sampler(self.nodes)
        self._t0 = cfg.t0
        self._rate = sampler.rate_hz
        self._n = sampler.count(cfg.duration_s)
        # The same field as synthesize_fleet_traces for a given seed.
        self.field = fleet_ambient_field(cfg, seed)
        wakes = [ship.wake() for ship in ships]
        self._wakes = [
            heave_gained_wake_trains(n, ships, cfg, wakes=wakes)
            for n in self.nodes
        ]
        # The monolithic read consumes x-, y- then z-noise from one
        # stream; position a per-node clone at the z draws.
        self._noise = [
            n.mote.accelerometer.axis_noise_rng(2, self._n) for n in self.nodes
        ]
        self._positions = [n.anchor for n in self.nodes]
        self._responses = [n.buoy.heave_gain for n in self.nodes]
        self._buoys = [n.buoy for n in self.nodes]
        self.t0s = [
            float(n.mote.clock.local_time(float(cfg.t0))) for n in self.nodes
        ]
        self._pos = 0

    @property
    def n_nodes(self) -> int:
        """Fleet size."""
        return len(self.nodes)

    @property
    def n_samples(self) -> int:
        """Samples per node on the shared grid."""
        return self._n

    @property
    def samples_remaining(self) -> int:
        """Samples not yet produced."""
        return self._n - self._pos

    def next_chunk(self, chunk_samples: int) -> Optional[np.ndarray]:
        """The next ``(nodes, <=chunk_samples)`` block of raw z counts.

        Returns ``None`` once the grid is exhausted.  The chunk that
        exhausts it bills the whole record's samples to every mote's
        battery in one draw, as the monolithic record does after
        digitising: per-chunk draws would not sum to the same float.
        """
        if chunk_samples < 1:
            raise ConfigurationError(
                f"chunk_samples must be >= 1, got {chunk_samples}"
            )
        if self._pos >= self._n:
            return None
        # Sampler.instants' formula on this chunk's sample indices:
        # bit-equal to slicing the whole record's grid.
        stop = min(self._pos + chunk_samples, self._n)
        t_c = self._t0 + np.arange(self._pos, stop) / self._rate
        az = self.field.vertical_acceleration_batch(
            self._positions, t_c, responses=self._responses
        )
        self._pos += t_c.size
        done = self._pos == self._n
        for i in range(len(self.nodes)):
            az[i] = add_wakes_and_disturbances(az[i], t_c, self._wakes[i], ())
        fz, _, _ = Buoy.specific_force(self._buoys, t_c, az)
        out = np.empty((len(self.nodes), t_c.size), dtype=np.int64)
        for i, node in enumerate(self.nodes):
            out[i] = node.mote.accelerometer.read_axis_chunk(
                fz[i], 2, self._noise[i]
            )
            if done:
                node.mote.battery.draw_samples(self._n)
        return out

    def chunks(self, chunk_samples: int) -> Iterator[np.ndarray]:
        """Iterate the whole grid in ``chunk_samples`` blocks."""
        while True:
            block = self.next_chunk(chunk_samples)
            if block is None:
                return
            yield block


def run_streaming_scenario(
    deployment: GridDeployment,
    ships: Sequence[ShipTrack] = (),
    detector_config: NodeDetectorConfig | None = None,
    synthesis_config: SynthesisConfig | None = None,
    seed: RandomState = None,
    chunk_s: float = 60.0,
    tracer: Optional[Tracer] = None,
) -> OfflineScenarioResult:
    """The offline scenario with synthesis fused into detection.

    Equivalent to :func:`~repro.scenario.runner.run_offline_scenario`
    with a streamable preprocessing filter, for any ``chunk_s``, but
    never materialises a full trace: synthesis output flows through the
    carried-state preprocessor into the fleet window walk ``chunk_s``
    seconds at a time, and each chunk's arrays are released before the
    next is synthesised, capping peak memory at O(nodes x chunk).  The
    default 60 s (3,000 samples at 50 Hz) is a whole number of
    200-sample synthesis blocks and of 50-sample hops; each chunk pays
    per-node Python and numpy call overhead once, so longer chunks
    trade memory for speed.

    Reports fuse under the offline runner's defaults: the default
    cluster config and the first ship's ground-truth line, or with no
    ship a line each cluster fits from its own reports — as the online
    heads of :func:`~repro.scenario.runner.run_network_scenario` always
    do.

    ``tracer`` (optional) records a profiling span per streaming
    stage (synthesize/preprocess/detect, once per chunk, plus the
    final fusion) and traces fleet alarms; ``None`` (the default)
    adds nothing to the run.
    """
    if chunk_s <= 0:
        raise ConfigurationError(f"chunk_s must be positive, got {chunk_s}")
    det_cfg = (
        detector_config if detector_config is not None else NodeDetectorConfig()
    )
    if det_cfg.preprocess.filter_kind not in STREAMABLE_FILTER_KINDS:
        raise ConfigurationError(
            f"filter_kind {det_cfg.preprocess.filter_kind!r} cannot "
            "stream; use one of "
            f"{', '.join(repr(k) for k in STREAMABLE_FILTER_KINDS)}"
        )
    for node in deployment:
        det_cfg.check_sample_rate(node.mote.sampler.rate_hz)
    synth = (
        synthesis_config if synthesis_config is not None else SynthesisConfig()
    )
    source = StreamingFleetSynthesizer(deployment, ships, synth, seed=seed)
    pre = StreamingPreprocessor(source.n_nodes, det_cfg.rate_hz)
    fleet = FleetDetector.from_deployment(deployment, det_cfg, tracer)
    stream = fleet.stream(source.t0s)
    chunk_samples = max(int(round(chunk_s * det_cfg.rate_hz)), 1)
    # One profiling span per streaming stage per chunk (free when
    # tracing is off).
    for chunk_index in itertools.count():
        with maybe_stage(tracer, "synthesize_chunk", chunk=chunk_index):
            z_chunk = source.next_chunk(chunk_samples)
        if z_chunk is None:
            break
        with maybe_stage(tracer, "preprocess_chunk", chunk=chunk_index):
            a_chunk = pre.push(z_chunk)
        with maybe_stage(tracer, "detect_chunk", chunk=chunk_index):
            stream.push(a_chunk)
        # Hold one chunk's arrays at a time, not two across synthesis.
        del z_chunk, a_chunk
    return fuse_offline_reports(
        deployment,
        ships,
        stream.finish(),
        cluster_config=None,
        track_hypothesis=None,
        tracer=tracer,
    )

"""Tests for the trace synthesis pipeline."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.analysis.experiments import run_threshold_ablation
from repro.constants import ACCEL_COUNTS_PER_G, SAMPLE_RATE_HZ
from repro.errors import ConfigurationError
from repro.physics.buoy import Buoy, BuoyMotion
from repro.physics.disturbance import FishBump
from repro.physics.wavefield import AmbientWaveField
from repro.scenario.deployment import GridDeployment
from repro.scenario import synthesis
from repro.scenario.presets import paper_deployment, paper_ship
from repro.scenario.streaming import StreamingFleetSynthesizer
from repro.scenario.synthesis import (
    SynthesisConfig,
    build_ambient_field,
    fleet_ambient_field,
    random_disturbances,
    synthesize_fleet_traces,
    synthesize_node_trace,
    wake_trains_for_node,
)
from repro.sensors.sampler import Sampler


@pytest.fixture
def short_cfg():
    return SynthesisConfig(duration_s=40.0)


def test_trace_basic_shape(tiny_grid, short_cfg):
    field = build_ambient_field(short_cfg, seed=1)
    trace = synthesize_node_trace(tiny_grid.node(0), field, config=short_cfg)
    assert len(trace) == 40 * 50
    assert trace.rate_hz == 50.0


def test_z_floats_near_one_g(tiny_grid, short_cfg):
    field = build_ambient_field(short_cfg, seed=1)
    trace = synthesize_node_trace(tiny_grid.node(0), field, config=short_cfg)
    assert abs(trace.z.mean() - ACCEL_COUNTS_PER_G) < 120


def test_wake_visible_in_trace(tiny_grid):
    cfg = SynthesisConfig(duration_s=120.0)
    ship = paper_ship(tiny_grid, cross_time_s=60.0, column_gap=0.5)
    field = build_ambient_field(cfg, seed=2)
    node = tiny_grid.node(0)
    quiet = synthesize_node_trace(node, field, config=cfg)
    with_ship = synthesize_node_trace(node, field, [ship], config=cfg)
    arrival = ship.wake().arrival_time(node.anchor)
    k = int(arrival * 50)
    window = slice(max(k - 100, 0), k + 200)
    assert (
        np.abs(with_ship.z[window].astype(float) - ACCEL_COUNTS_PER_G).max()
        > np.abs(quiet.z[window].astype(float) - ACCEL_COUNTS_PER_G).max()
    )


def test_disturbance_added(tiny_grid, short_cfg):
    field = build_ambient_field(short_cfg, seed=3)
    node = tiny_grid.node(0)
    bump = FishBump(time=20.0, peak_accel=15.0)
    plain = synthesize_node_trace(node, field, config=short_cfg)
    bumped = synthesize_node_trace(
        node, field, disturbances=[bump], config=short_cfg
    )
    k = slice(int(19.5 * 50), int(21.0 * 50))
    assert bumped.z[k].max() > plain.z[k].max() + 200


def test_wake_trains_use_drifted_position(tiny_grid):
    cfg = SynthesisConfig(duration_s=120.0)
    ship = paper_ship(tiny_grid, cross_time_s=60.0, column_gap=0.5)
    node = tiny_grid.node(0)
    trains = wake_trains_for_node(node, [ship], cfg)
    assert len(trains) == 1
    nominal = ship.wake().arrival_time(node.anchor)
    # Mooring drift shifts the arrival slightly but boundedly (~2 m at
    # the wedge propagation speed).
    assert abs(trains[0].arrival_time - nominal) < 5.0


def test_fleet_traces_cover_all_nodes(tiny_grid, short_cfg):
    traces = synthesize_fleet_traces(tiny_grid, config=short_cfg, seed=5)
    assert set(traces) == {0, 1, 2, 3}


def test_fleet_shares_one_field(tiny_grid, short_cfg):
    # Two nodes see correlated ambient motion (same sea realisation).
    traces = synthesize_fleet_traces(tiny_grid, config=short_cfg, seed=5)
    a = traces[0].z.astype(float)
    b = traces[1].z.astype(float)
    rho = np.corrcoef(a, b)[0, 1]
    # Weak but present correlation at 25 m; independent fields would be 0.
    assert abs(rho) < 0.95


def test_fleet_deterministic(tiny_grid, short_cfg):
    g1 = GridDeployment(2, 2, seed=11)
    g2 = GridDeployment(2, 2, seed=11)
    t1 = synthesize_fleet_traces(g1, config=short_cfg, seed=5)
    t2 = synthesize_fleet_traces(g2, config=short_cfg, seed=5)
    assert np.array_equal(t1[0].z, t2[0].z)


def test_random_disturbances_rates(tiny_grid):
    cfg = SynthesisConfig(duration_s=3600.0)
    events = random_disturbances(
        tiny_grid, cfg, gusts_per_node_hour=6.0, bumps_per_node_hour=4.0, seed=7
    )
    counts = [len(v) for v in events.values()]
    assert sum(counts) > 10  # ~40 expected over 4 node-hours
    assert set(events) == {0, 1, 2, 3}


def test_config_validation():
    with pytest.raises(ConfigurationError):
        SynthesisConfig(duration_s=0.0)


def test_single_node_uses_fleet_path(monkeypatch):
    # A one-node trace is the fleet path on a one-node fleet: the same
    # seed-derived field gives the same counts through
    # synthesize_node_trace as through synthesize_fleet_traces, and
    # both evaluate the ambient sea through the fleet batch.
    cfg = SynthesisConfig(duration_s=30.0, include_horizontal=True)
    dep = GridDeployment(1, 1, spacing_m=25.0, seed=3)
    ship = paper_ship(dep, cross_time_s=15.0, column_gap=0.5)
    bump = {dep.node(0).node_id: [FishBump(time=10.0, peak_accel=3.0)]}
    fleet = synthesize_fleet_traces(
        dep, [ship], cfg, disturbances_by_node=bump, seed=7
    )
    batch_calls = []
    original = AmbientWaveField.vertical_acceleration_batch

    def counted(self, *args, **kwargs):
        batch_calls.append(len(args[0]))
        return original(self, *args, **kwargs)

    monkeypatch.setattr(AmbientWaveField, "vertical_acceleration_batch", counted)
    dep2 = GridDeployment(1, 1, spacing_m=25.0, seed=3)
    node = dep2.node(0)
    single = synthesize_node_trace(
        node,
        fleet_ambient_field(cfg, 7),
        [ship],
        disturbances=bump[node.node_id],
        config=cfg,
    )
    assert batch_calls == [1]
    (trace,) = fleet.values()
    assert np.array_equal(single.z, trace.z)
    assert np.array_equal(single.x, trace.x)
    assert np.array_equal(single.y, trace.y)


def test_ragged_grids_rejected():
    dep = GridDeployment(2, 2, spacing_m=25.0, seed=11)
    dep.node(0).mote.sampler = Sampler(rate_hz=25.0)
    cfg = SynthesisConfig(duration_s=20.0)
    with pytest.raises(ConfigurationError, match="shared fleet sample grid"):
        synthesize_fleet_traces(dep, config=cfg, seed=7)
    # Rejected before any mote records: no battery was billed.
    for node in dep:
        battery = node.mote.battery
        assert battery.remaining_j == battery.capacity_j


@st.composite
def _fleet_cases(draw, shortest_s=40):
    """2x2-3x3 fleets, 40-120 s records, 0-2 crossings, nuisances or not.

    ``shortest_s`` lowers the shortest record drawn.
    """
    duration = draw(st.integers(shortest_s, 120))
    return dict(
        rows=draw(st.integers(2, 3)),
        columns=draw(st.integers(2, 3)),
        duration_s=float(duration),
        cross_times_s=draw(
            st.lists(st.integers(1, duration).map(float), max_size=2)
        ),
        nuisances=draw(st.booleans()),
        seed=draw(st.integers(0, 2**20)),
    )


def _recorded_fleet(
    rows, columns, duration_s, cross_times_s, nuisances, seed, horizontal
):
    """A fresh deployment and its traces, x/y recorded if ``horizontal``."""
    dep = paper_deployment(rows, columns, seed=seed)
    ships = [
        paper_ship(dep, alpha_deg=alpha, cross_time_s=t)
        for alpha, t in zip((70.0, 110.0), cross_times_s)
    ]
    cfg = SynthesisConfig(duration_s=duration_s, include_horizontal=horizontal)
    # Dense nuisances, so short records carry gusts and bumps too.
    disturbances = (
        random_disturbances(
            dep,
            cfg,
            gusts_per_node_hour=120.0,
            bumps_per_node_hour=120.0,
            seed=seed + 1,
        )
        if nuisances
        else None
    )
    traces = synthesize_fleet_traces(
        dep, ships, cfg, disturbances_by_node=disturbances, seed=seed
    )
    return dep, traces


@given(case=_fleet_cases())
@settings(
    max_examples=settings.default.max_examples // 5,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_z_only_synthesis_equals_three_axis(case):
    """Recording z alone changes no z count, noise stream or battery."""
    dep_z, z_only = _recorded_fleet(**case, horizontal=False)
    dep_xyz, three_axis = _recorded_fleet(**case, horizontal=True)
    assert sorted(z_only) == sorted(three_axis)
    for nid, trace in z_only.items():
        assert np.array_equal(trace.z, three_axis[nid].z)
        assert trace.t0 == three_axis[nid].t0
        assert trace.x is None and trace.y is None
        assert three_axis[nid].x is not None and three_axis[nid].y is not None
    _assert_same_devices(dep_z, dep_xyz)


def _assert_same_devices(dep_a, dep_b):
    """Every node's noise stream and battery ended alike."""
    for a, b in zip(dep_a, dep_b):
        assert (
            a.mote.accelerometer._noise_rng.bit_generator.state
            == b.mote.accelerometer._noise_rng.bit_generator.state
        )
        assert a.mote.battery.remaining_j == b.mote.battery.remaining_j
        assert a.mote.battery.breakdown() == b.mote.battery.breakdown()


def _motion_hook(mp):
    """Keep every row of every :meth:`Buoy.specific_force` block.

    Returns the list each projected buoy's motion is appended to, in
    projection order.  The hook is a plain function set on the class,
    as perfbench's profiling wrapper is, so a caller reaching the
    projection through an instance would hand it a buoy as its block
    and fail.
    """
    motions = []
    specific_force = Buoy.specific_force

    def kept(buoys, t, *args, **kwargs):
        fz, fx, fy = specific_force(buoys, t, *args, **kwargs)
        for i in range(len(buoys)):
            motions.append(
                BuoyMotion(
                    t=np.array(t),
                    fx=None if fx is None else fx[i].copy(),
                    fy=None if fy is None else fy[i].copy(),
                    fz=fz[i].copy(),
                )
            )
        return fz, fx, fy

    mp.setattr(Buoy, "specific_force", kept)
    return motions


def _recorded_motions(mp, case, horizontal):
    """:func:`_recorded_fleet`, and each buoy's motion in recording order.

    The motions are the floats the motes digitise, so they show a
    deviation too small to move a count.
    """
    motions = _motion_hook(mp)
    return _recorded_fleet(**case, horizontal=horizontal), motions


def _offline_counts():
    dep = paper_deployment(2, 2, seed=5)
    ship = paper_ship(dep, cross_time_s=20.0)
    cfg = SynthesisConfig(duration_s=40.0)
    traces = synthesize_fleet_traces(dep, [ship], cfg, seed=5)
    return np.stack([traces[n.node_id].z for n in dep])


def _streamed_counts():
    dep = paper_deployment(2, 2, seed=5)
    ship = paper_ship(dep, cross_time_s=20.0)
    cfg = SynthesisConfig(duration_s=40.0)
    source = StreamingFleetSynthesizer(dep, [ship], cfg, seed=5)
    return np.concatenate(list(source.chunks(700)), axis=1)


def _threshold_ablation():
    return run_threshold_ablation(seeds=(1,))


@pytest.mark.parametrize(
    "run, rows",
    [
        (_offline_counts, 4),
        # Three chunks of four buoys.
        (_streamed_counts, 12),
        (_threshold_ablation, 4),
    ],
)
def test_motion_hook_sees_every_projected_row(run, rows):
    # The hook the row-block property reads motions through must see
    # every synthesis caller's rows and change none of their outputs.
    plain = run()
    with pytest.MonkeyPatch.context() as mp:
        motions = _motion_hook(mp)
        hooked = run()
    assert len(motions) == rows
    if isinstance(plain, dict):
        assert hooked == plain
    else:
        assert np.array_equal(hooked, plain)


@given(
    case=_fleet_cases(shortest_s=1),
    horizontal=st.booleans(),
    block_rows=st.integers(1, 9),
)
# A record within one sinusoid block, in one-row blocks.
@example(
    case=dict(
        rows=3,
        columns=3,
        duration_s=3.0,
        cross_times_s=[1.0],
        nuisances=True,
        seed=5,
    ),
    horizontal=True,
    block_rows=1,
)
@settings(
    max_examples=settings.default.max_examples // 5,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_row_blocks_equal_the_whole_fleet(case, horizontal, block_rows):
    """A fleet recorded a row block at a time equals the whole-fleet batch.

    Every buoy motion and recorded axis, noise stream and battery, for
    any block size.
    """
    row_bytes = 8 * round(case["duration_s"] * SAMPLE_RATE_HZ)
    runs = []
    for rows in (block_rows, case["rows"] * case["columns"]):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(synthesis, "AMBIENT_BLOCK_BYTES", rows * row_bytes)
            runs.append(_recorded_motions(mp, case, horizontal))
    (dep_blocked, blocked), moved_blocked = runs[0]
    (dep_whole, whole), moved_whole = runs[1]
    assert len(moved_whole) == len(dep_whole)
    for a, b in zip(moved_blocked, moved_whole, strict=True):
        assert np.array_equal(a.fz, b.fz)
        if horizontal:
            assert np.array_equal(a.fx, b.fx)
            assert np.array_equal(a.fy, b.fy)
    assert sorted(blocked) == sorted(whole)
    for nid, trace in blocked.items():
        assert np.array_equal(trace.z, whole[nid].z)
        if horizontal:
            assert np.array_equal(trace.x, whole[nid].x)
            assert np.array_equal(trace.y, whole[nid].y)
    _assert_same_devices(dep_blocked, dep_whole)


def test_fleet_synthesis_holds_one_row_block():
    # A Table II fleet (6x5, 400 s, one crossing) is recorded a row
    # block at a time: the traced peak stays within 2.25x of the
    # recorded counts, where one whole-fleet batch reaches 3.1x.
    dep = paper_deployment(seed=3)
    cfg = SynthesisConfig(duration_s=400.0)
    tracemalloc.start()
    try:
        traces = synthesize_fleet_traces(dep, [paper_ship(dep)], cfg, seed=3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.25 * sum(trace.z.nbytes for trace in traces.values())

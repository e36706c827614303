"""SweepRunner determinism and configuration contracts.

The headline guarantee: ``map`` returns bit-identical results for any
worker count, because every task's randomness flows from its own
parameters.  The tasks below are module-level (workers pickle them by
reference) and exercise the real scenario substrate, not toy lambdas.
"""

from __future__ import annotations

import hashlib
import pickle

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.parallel import SweepConfig, SweepRunner
from repro.parallel.sweep import WORKERS_ENV
from repro.scenario.deployment import GridDeployment
from repro.scenario.synthesis import SynthesisConfig, synthesize_fleet_traces


def fleet_digest(seed: int, duration_s: float = 30.0) -> str:
    """Digest of a seeded fleet synthesis — deterministic per seed."""
    dep = GridDeployment(2, 2, spacing_m=25.0, seed=seed)
    traces = synthesize_fleet_traces(
        dep, config=SynthesisConfig(duration_s=duration_s), seed=seed
    )
    h = hashlib.sha256()
    for nid in sorted(traces):
        h.update(traces[nid].z.tobytes())
    return h.hexdigest()


def noisy_stat(seed: int, n: int = 512) -> float:
    """A cheap seeded statistic for worker bookkeeping tests."""
    return float(np.random.default_rng(seed).standard_normal(n).sum())


SEED_PARAMS = [{"seed": s} for s in (3, 11, 29, 41)]


def test_parallel_bit_identical_to_serial():
    serial = SweepRunner(SweepConfig(workers=1)).map(
        fleet_digest, SEED_PARAMS
    )
    parallel = SweepRunner(SweepConfig(workers=4)).map(
        fleet_digest, SEED_PARAMS
    )
    assert serial == parallel
    # Distinct seeds really produced distinct runs.
    assert len(set(serial)) == len(serial)


def test_chunked_dispatch_preserves_order():
    params = [{"seed": s} for s in range(48)]
    serial = SweepRunner().map(noisy_stat, params)
    runner = SweepRunner(SweepConfig(workers=3))
    assert runner._chunk_size(len(params)) == 4  # four tasks per dispatch
    assert runner.map(noisy_stat, params) == serial


def test_config_validation():
    with pytest.raises(ConfigurationError):
        SweepConfig(workers=0)


def test_config_from_env(monkeypatch):
    monkeypatch.delenv(WORKERS_ENV, raising=False)
    assert SweepConfig.from_env().workers == 1
    monkeypatch.setenv(WORKERS_ENV, "6")
    assert SweepConfig.from_env().workers == 6
    monkeypatch.setenv(WORKERS_ENV, "0")
    assert SweepConfig.from_env().workers == 1
    monkeypatch.setenv(WORKERS_ENV, "many")
    with pytest.raises(ConfigurationError):
        SweepConfig.from_env()


def test_empty_sweep():
    assert SweepRunner().map(noisy_stat, []) == []


def test_results_are_picklable_contract():
    # The parallel path ships results between processes; the scenario
    # digests used above must survive a pickle round-trip.
    out = SweepRunner().map(noisy_stat, [{"seed": 7}])
    assert pickle.loads(pickle.dumps(out)) == out

"""Tests for the seeded RNG plumbing."""

from __future__ import annotations

import numpy as np
import pytest

from repro.rng import derive_rng, make_rng, spawn_rng


def test_make_rng_from_int_is_deterministic():
    a = make_rng(42).random(5)
    b = make_rng(42).random(5)
    assert np.array_equal(a, b)


def test_make_rng_passthrough():
    gen = np.random.default_rng(0)
    assert make_rng(gen) is gen


def test_make_rng_none_gives_generator():
    assert isinstance(make_rng(None), np.random.Generator)


def test_spawn_rng_children_are_independent():
    parent = make_rng(7)
    children = spawn_rng(parent, 3)
    seqs = [c.random(8) for c in children]
    assert not np.array_equal(seqs[0], seqs[1])
    assert not np.array_equal(seqs[1], seqs[2])


def test_spawn_rng_rejects_bad_count():
    with pytest.raises(ValueError):
        spawn_rng(make_rng(0), 0)


def test_derive_rng_same_stream_reproducible():
    a = derive_rng(5, "channel").random(4)
    b = derive_rng(5, "channel").random(4)
    assert np.array_equal(a, b)


def test_derive_rng_distinct_streams_differ():
    a = derive_rng(5, "channel").random(4)
    b = derive_rng(5, "mac").random(4)
    assert not np.array_equal(a, b)


def test_derive_rng_distinct_seeds_differ():
    a = derive_rng(5, "x").random(4)
    b = derive_rng(6, "x").random(4)
    assert not np.array_equal(a, b)

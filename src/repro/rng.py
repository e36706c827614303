"""Seeded random-number plumbing.

Every stochastic component in the library accepts either a seed or a
:class:`numpy.random.Generator`.  Centralising the coercion here keeps
experiments reproducible: a scenario seeded once fans independent child
streams out to the ocean field, the sensor noise, the channel model and
so on, without the components ever sharing (and thus coupling) a stream.
"""

from __future__ import annotations

import zlib

import numpy as np

#: Anything the library coerces into a Generator: an explicit seed, an
#: existing generator (passed through), or None (nondeterministic).
RandomState = int | np.random.Generator | None


def make_rng(seed: RandomState = None) -> np.random.Generator:
    """Coerce ``seed`` into a :class:`numpy.random.Generator`.

    ``None`` yields a nondeterministic generator; an ``int`` yields a
    deterministic one; an existing generator is passed through unchanged.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def spawn_rng(rng: np.random.Generator, n: int = 1) -> list[np.random.Generator]:
    """Derive ``n`` statistically independent child generators from ``rng``.

    Uses the bit-generator's ``spawn`` support so child streams never
    overlap the parent's, keeping multi-component simulations decoupled.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return [np.random.default_rng(s) for s in rng.bit_generator.seed_seq.spawn(n)]


def derive_rng(seed: RandomState, stream: str) -> np.random.Generator:
    """Derive a named, deterministic child stream from ``seed``.

    Two calls with the same ``(seed, stream)`` pair return generators
    producing identical sequences, while distinct ``stream`` labels give
    independent sequences.  ``None`` seeds stay nondeterministic.
    """
    if seed is None:
        return np.random.default_rng()
    if isinstance(seed, np.random.Generator):
        # Draw a stable child from the generator's own entropy.
        base = int(seed.integers(0, 2**63 - 1))
    else:
        base = int(seed)
    mix = zlib.crc32(stream.encode("utf-8"))
    return np.random.default_rng(np.random.SeedSequence([base, mix]))

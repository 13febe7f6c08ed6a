"""Seeding helpers: one master seed, counter-derived independent streams."""
from __future__ import annotations

from typing import Sequence, Union

import numpy as np

SeedLike = Union[int, Sequence[int], np.random.Generator]


def as_generator(rng: SeedLike) -> np.random.Generator:
    """Accept an integer seed, a sequence of ints, or a ready Generator."""
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng)


def seed_record(rng: SeedLike) -> str:
    """Human-readable record of how a sample's stream was seeded."""
    if isinstance(rng, np.random.Generator):
        return "generator"
    if isinstance(rng, (int, np.integer)):
        return str(int(rng))
    return ",".join(str(int(s)) for s in rng)


def replication_stream(master_seed: int, index: int) -> np.random.Generator:
    """Independent stream for one replication, derived by (seed, index).

    The derivation is counter-based, so serial and parallel executions of
    the same plan see identical streams.
    """
    return np.random.default_rng(np.random.SeedSequence([int(master_seed), int(index)]))


def derived_stream(gen: np.random.Generator) -> np.random.Generator:
    """Independent stream seeded by gen's next draw (Generator.spawn needs numpy 1.25)."""
    return np.random.default_rng(gen.integers(1 << 63))

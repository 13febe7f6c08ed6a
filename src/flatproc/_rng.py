"""Seeding helpers: one master seed, counter-derived independent streams.

Block b of a replicated plan draws from `replication_stream(seed, b)`,
numpy's `SeedSequence([seed, b])` feeding PCG64; `stats_harness.replicate`
runs the block's replications on it in order.  A stream depends only on
(seed, b), so serial and parallel runs see the same streams
(counter-based generation, Salmon et al., SC 2011).
"""
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
    """Independent stream number `index` of a master seed: one real
    SeedSequence([master_seed, index]).  `replicate` reads index as a block."""
    return np.random.default_rng(np.random.SeedSequence([int(master_seed), int(index)]))


def derived_stream(gen: np.random.Generator) -> np.random.Generator:
    """Independent stream seeded by gen's next draw (Generator.spawn needs numpy 1.25)."""
    return np.random.default_rng(gen.integers(1 << 63))

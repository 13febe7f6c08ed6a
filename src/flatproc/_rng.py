"""Seeding helpers: one master seed, counter-derived independent streams.

Stream i of a master seed is `replication_stream(seed, i)`, numpy's
`SeedSequence([seed, i])` feeding PCG64: that function is the definition.
It depends only on (seed, i), so the streams of many indices can be
derived together (counter-based generation, Salmon et al., SC 2011):
`stream_states` runs numpy's SeedSequence pool hash (pool size 4) as
uint32 array arithmetic, one column per index, and `replication_streams`
hands each row of words to PCG64's own seeding.  The batch gives the same
generators, state for state and draw for draw.
"""
from __future__ import annotations

import operator
from typing import Iterator, Sequence, Union

import numpy as np
from numpy.random.bit_generator import ISpawnableSeedSequence

SeedLike = Union[int, Sequence[int], np.random.Generator]

# numpy's SeedSequence constants (bit_generator.pyx), after M. O'Neill's
# seed_seq_fe; the hash multipliers advance independently of the data
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


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


def _uint32_words(value: int) -> list[int]:
    """SeedSequence's entropy words of a non-negative int, low word first."""
    words = [value & _MASK32]
    value >>= 32
    while value:
        words.append(value & _MASK32)
        value >>= 32
    return words


def _hash_constants(init: int, mult: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """Xor and multiplier columns, (count, 1) uint32, of successive hash steps."""
    xors, mults = [], []
    for _ in range(count):
        xors.append(init)
        init = (init * mult) & _MASK32
        mults.append(init)
    return (np.array(xors, dtype=np.uint32)[:, None],
            np.array(mults, dtype=np.uint32)[:, None])


_STATE_CONSTANTS = _hash_constants(_INIT_B, _MULT_B, 8)
_SHIFT = np.uint32(16)
_MIX_L, _MIX_R = np.uint32(_MIX_MULT_L), np.uint32(_MIX_MULT_R)


def _hash(values: np.ndarray, xor: np.ndarray, mult: np.ndarray) -> np.ndarray:
    values = values ^ xor
    values *= mult
    values ^= values >> _SHIFT
    return values


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = _MIX_L * x
    result -= _MIX_R * y
    result ^= result >> _SHIFT
    return result


def stream_states(master_seed: int, indices) -> np.ndarray:
    """PCG64 seed words of the streams (master_seed, i), one row per index.

    Row j equals `SeedSequence([master_seed, indices[j]]).generate_state(4,
    np.uint64)`.  Each index must lie in [0, 2**32), one entropy word.
    Columns are indices; rows are the pool words, and the hash steps that
    numpy runs one after another on distinct pool words run as one row op.
    """
    seed = operator.index(master_seed)
    idx = np.asarray(indices, dtype=np.int64).reshape(-1)
    if seed < 0:
        raise ValueError("master seed must be non-negative")
    if idx.size and not (idx.min() >= 0 and idx.max() <= _MASK32):
        raise ValueError("stream indices must lie in [0, 2**32)")
    seed_words = _uint32_words(seed)
    entropy = np.zeros((max(_POOL_SIZE, len(seed_words) + 1), idx.size), dtype=np.uint32)
    entropy[:len(seed_words)] = np.array(seed_words, dtype=np.uint32)[:, None]
    entropy[len(seed_words)] = idx
    # hashmix runs once per pool word, once per ordered pair of distinct
    # pool words, and once per pool word for each entropy word beyond the pool
    xor, mult = _hash_constants(_INIT_A, _MULT_A, _POOL_SIZE * len(entropy))
    pool = _hash(entropy[:_POOL_SIZE], xor[:_POOL_SIZE], mult[:_POOL_SIZE])
    step = _POOL_SIZE
    for src in range(_POOL_SIZE):
        dst = [d for d in range(_POOL_SIZE) if d != src]
        end = step + len(dst)
        pool[dst] = _mix(pool[dst], _hash(pool[src], xor[step:end], mult[step:end]))
        step = end
    for word in entropy[_POOL_SIZE:]:
        end = step + _POOL_SIZE
        pool = _mix(pool, _hash(word, xor[step:end], mult[step:end]))
        step = end
    # generate_state: eight uint32 words cycling over the pool, paired
    # little-endian into four uint64 words
    state = _hash(np.concatenate([pool, pool]), *_STATE_CONSTANTS)
    words = np.ascontiguousarray(state.T, dtype="<u4").view("<u8").astype(np.uint64)
    words.flags.writeable = False
    return words


class _StreamSeed(ISpawnableSeedSequence):
    """Seed of stream (master_seed, index) with PCG64's four seed words
    already derived.  Other requests, and `spawn`, go to the real
    `SeedSequence([master_seed, index])`, built on first use."""

    __slots__ = ("master_seed", "index", "_words", "_sequence")

    def __init__(self, master_seed: int, index: int, words: np.ndarray) -> None:
        self.master_seed = master_seed
        self.index = index
        self._words = words
        self._sequence = None

    def sequence(self) -> np.random.SeedSequence:
        if self._sequence is None:
            self._sequence = np.random.SeedSequence([int(self.master_seed), int(self.index)])
        return self._sequence

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words == 4 and dtype is np.uint64:
            return self._words
        return self.sequence().generate_state(n_words, dtype)

    def spawn(self, n_children):
        return self.sequence().spawn(n_children)


def replication_streams(master_seed: int, indices: Sequence[int]) -> Iterator[np.random.Generator]:
    """`replication_stream(master_seed, i)` for each i in indices, with the
    seed words of all of them derived by one `stream_states` call."""
    words = stream_states(master_seed, indices)
    for index, row in zip(indices, words):
        yield np.random.Generator(np.random.PCG64(_StreamSeed(master_seed, index, row)))


def derived_stream(gen: np.random.Generator) -> np.random.Generator:
    """Independent stream seeded by gen's next draw (Generator.spawn needs numpy 1.25)."""
    return np.random.default_rng(gen.integers(1 << 63))

"""Intersection and proximity processes built from flat samples, and the
length-power direction functionals evaluated on them.

Both processes are stored as arrays: segments as midpoints, lengths,
directions and index pairs, intersection flats as direction bases, offsets
and generator index tuples; `segments` and `flats` materialize the immutable
objects on demand.  Pairs and tuples are solved in blocks by the array
kernels of `flat_geometry` (`pair_segments`, `tuple_intersections`).
Every pair is considered, so a proximity process holds every pair within
delta wherever its segment lies; for lines, `pair_segments` solves exactly
only the pairs that a screen of matrix products (in R^3 two per slab of
pairs) cannot rule out: a few floating-point operations per pair.  The
exactness of the functionals is guaranteed by the window-radius
precondition radius >= circumradius(A) + delta/2 checked in `f_alpha`.
A segment sample computes its window mask, `window.contains(midpoints)`,
once per window (`SegmentProcessSample.window_mask`), so the functionals
evaluated on one sample and window share it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from pathlib import Path

import numpy as np

from .closed_form import WindowDescriptor
from .flat_geometry import (Flat, ProximitySegment, Subspace, pair_segments,
                            tuple_intersections)
from .measures import DirectionSet, finite_positive
from .simulator import FlatSample


@dataclass(frozen=True)
class SegmentProcessSample:
    """Proximity segments of one realization, as parallel arrays."""

    n: int
    delta: float
    radius: float
    midpoints: np.ndarray   # (m, n)
    lengths: np.ndarray     # (m,)
    directions: np.ndarray  # (m, n), unit, sign-canonicalized
    pairs: np.ndarray       # (m, 2) indices into the source sample(s)

    def __post_init__(self) -> None:
        midpoints = np.asarray(self.midpoints, dtype=float).reshape(-1, self.n)
        lengths = np.asarray(self.lengths, dtype=float).reshape(-1)
        directions = np.asarray(self.directions, dtype=float).reshape(-1, self.n)
        pairs = np.asarray(self.pairs, dtype=int).reshape(-1, 2)
        m = lengths.shape[0]
        if not (midpoints.shape[0] == directions.shape[0] == pairs.shape[0] == m):
            raise ValueError("segment arrays must have a common length")
        # each test is written `not x <= bound`, so NaN fails it too
        if m:
            if not (0 < lengths.min() and lengths.max() <= self.delta + 1e-12):
                raise ValueError("segment lengths must lie in (0, delta]")
            sq = np.einsum("mn,mn->m", directions, directions)
            if not np.abs(sq - 1.0).max() <= 1e-9 * (2.0 - 1e-9):  # |u| within 1e-9 of 1
                raise ValueError("segment directions must be unit vectors")
        for name, arr in (("midpoints", midpoints), ("lengths", lengths),
                          ("directions", directions), ("pairs", pairs)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "_window_masks", {})  # a memo, not a field

    def __len__(self) -> int:
        return self.lengths.shape[0]

    def window_mask(self, window: WindowDescriptor) -> np.ndarray:
        """window.contains(midpoints), computed once per window and read-only."""
        mask = self._window_masks.get(window)
        if mask is None:
            mask = self._window_masks[window] = window.contains(self.midpoints)
            mask.flags.writeable = False
        return mask

    @cached_property
    def segments(self) -> tuple[ProximitySegment, ...]:
        return tuple(
            ProximitySegment(self.midpoints[i], float(self.lengths[i]),
                             self.directions[i],
                             (int(self.pairs[i, 0]), int(self.pairs[i, 1])))
            for i in range(len(self)))


@dataclass(frozen=True)
class IntersectionSample:
    """Intersection q-flats of one realization, as parallel arrays."""

    n: int
    q: int
    bases: np.ndarray    # (m, q, n) orthonormal rows per flat
    offsets: np.ndarray  # (m, n), each orthogonal to its basis rows
    tuples: np.ndarray   # (m, r) generator indices into the source sample(s)

    def __post_init__(self) -> None:
        bases = np.asarray(self.bases, dtype=float)
        offsets = np.asarray(self.offsets, dtype=float)
        tuples = np.asarray(self.tuples, dtype=int)
        for name, arr in (("bases", bases), ("offsets", offsets), ("tuples", tuples)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    def __len__(self) -> int:
        return self.offsets.shape[0]

    @cached_property
    def flats(self) -> tuple[Flat, ...]:
        return tuple(Flat(Subspace(self.bases[i]), self.offsets[i])
                     for i in range(len(self)))

    @cached_property
    def generator_indices(self) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(int(i) for i in row) for row in self.tuples)


def _index_tuples(sizes: list[int], single: bool) -> np.ndarray:
    """Index tuples in lexicographic order: the r-subsets of one sample of
    sizes[0] flats (single), or the product over r samples."""
    r = len(sizes)
    if not single:
        grids = np.meshgrid(*[np.arange(size) for size in sizes], indexing="ij")
        return np.stack([g.ravel() for g in grids], axis=1)
    if r == 2:  # the same pairs, without a Python tuple per pair
        return np.stack(np.triu_indices(sizes[0], k=1), axis=1).astype(int)
    return np.array(list(combinations(range(sizes[0]), r)), dtype=int).reshape(-1, r)


def proximity(sample_a: FlatSample, sample_b: FlatSample | None = None,
              delta: float = 1.0) -> SegmentProcessSample:
    """Proximity process of one sample, or of two independent samples.

    Every unordered pair of flats in general position with separation in
    (0, delta] contributes one segment; degenerate and touching pairs are
    skipped.  With sample_b given (and not the same object), all cross pairs
    are enumerated instead.
    """
    single = sample_b is None or sample_b is sample_a
    other = sample_a if single else sample_b
    n = sample_a.n
    if other.n != n:
        raise ValueError("samples must share the ambient dimension")
    if sample_a.k + other.k >= n:
        raise ValueError("requires k_1 + k_2 < n")
    if not finite_positive(delta):
        raise ValueError("distance threshold must be finite and positive")
    radius = min(sample_a.radius, other.radius)
    mids, lens, dirs, pairs = pair_segments(sample_a.bases, sample_a.offsets,
                                            other.bases, other.offsets, single, delta)
    return SegmentProcessSample(n, delta, radius, mids, lens, dirs, pairs)


def intersections(samples, order: int | None = None) -> IntersectionSample:
    """Intersection process of r independent samples, or of one sample with
    multiplicity r.

    Each unordered set of r flats in general position contributes its
    intersection flat of dimension q = k_1 + ... + k_r - (r-1) n.
    """
    single = isinstance(samples, FlatSample)
    if single:
        if order is None:
            raise ValueError("order is required for a single sample")
        sample_list = [samples] * order
    else:
        sample_list = list(samples)
        if order is not None and order != len(sample_list):
            raise ValueError("order must match the number of samples")
    r = len(sample_list)
    n = sample_list[0].n
    q = sum(s.k for s in sample_list) - (r - 1) * n
    if q < 0:
        raise ValueError("requires k_1 + ... + k_r >= (r-1) n")
    tuples = _index_tuples([len(s) for s in sample_list], single)
    bases, offsets, tuples = tuple_intersections(
        [s.bases for s in sample_list], [s.offsets for s in sample_list], tuples)
    return IntersectionSample(n, q, bases, offsets, tuples)


def _qualifying_lengths(seg: SegmentProcessSample, window: WindowDescriptor,
                        direction_set: DirectionSet | None) -> np.ndarray:
    """Lengths of the segments with midpoint in the window and direction in
    the direction set, after checking the window-radius precondition."""
    needed = window.circumradius() + seg.delta / 2.0
    if seg.radius < needed - 1e-9:
        raise ValueError(
            f"window too small for exact enumeration: sample window radius "
            f"{seg.radius} < circumradius + delta/2 = {needed}")
    keep = seg.window_mask(window)
    if direction_set is not None and direction_set.kind != "full":
        keep = keep & direction_set.contains(seg.directions)
    return seg.lengths[keep]


def f_alpha(seg: SegmentProcessSample, alpha: float, window: WindowDescriptor,
            direction_set: DirectionSet | None = None) -> float:
    """Sum of d^alpha over segments with midpoint in the window and
    direction in the direction set.

    The even direction set weighs each segment by the indicator of its
    canonical direction; a full sphere weighs every segment by 1, so alpha=0
    counts the qualifying segments.
    """
    if not (math.isfinite(alpha) and alpha >= 0):
        raise ValueError("alpha must be finite and nonnegative")
    return float(np.sum(_qualifying_lengths(seg, window, direction_set) ** alpha))


def order_statistics(seg: SegmentProcessSample, alpha: float,
                     window: WindowDescriptor, m: int,
                     direction_set: DirectionSet | None = None) -> np.ndarray:
    """Ascending first m values of d^alpha over qualifying segments.

    Padded with +inf when fewer than m segments qualify.
    """
    if not finite_positive(alpha):
        raise ValueError("order statistics need a finite positive length power")
    if isinstance(m, bool) or not isinstance(m, (int, np.integer)) or m < 1:
        raise ValueError(f"order statistics need an integer m >= 1, got m={m!r}")
    values = _qualifying_lengths(seg, window, direction_set) ** alpha
    if m < values.shape[0]:  # the m smallest, in some order
        values = np.partition(values, m - 1)[:m]
    out = np.full(m, np.inf)
    out[: values.shape[0]] = np.sort(values)
    return out


def write_segments_csv(seg: SegmentProcessSample, path: str | Path,
                       seed: str = "unknown") -> None:
    """Write segments as CSV, one row per segment.

    Columns: midpoint coordinates, length d, direction coordinates, and the
    generating pair indices; a leading comment line records n, delta, and
    the seed of the underlying sample.
    """
    n = seg.n
    axes = [("xyz"[i] if i < 3 else str(i)) for i in range(n)]
    header = ([f"m{ax}" for ax in axes] + ["d"]
              + [f"u{ax}" for ax in axes] + ["i", "j"])
    lines = [f"# n={n} delta={seg.delta!r} seed={seed}", ",".join(header)]
    for i in range(len(seg)):
        row = ([repr(float(x)) for x in seg.midpoints[i]]
               + [repr(float(seg.lengths[i]))]
               + [repr(float(x)) for x in seg.directions[i]]
               + [str(int(seg.pairs[i, 0])), str(int(seg.pairs[i, 1]))])
        lines.append(",".join(row))
    Path(path).write_text("\n".join(lines) + "\n")

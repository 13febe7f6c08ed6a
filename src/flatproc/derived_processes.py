"""Intersection and proximity processes built from flat samples, and the
length-power direction functionals evaluated on them.

Both processes are stored as arrays, each the container's own `read_only`
copy: segments as midpoints, lengths, directions and index pairs, from the
arrays `pair_segments` returns; intersection flats as direction bases,
offsets and generator index tuples, checked once by `check_orthonormal`
when the sample is made, so `IntersectionSample.flats`, the `flat_views` of
its stacks, cannot fail.  The intersections of one sample take one
complement of its basis stack, whatever their order.
Pairs and tuples are solved in blocks by the array kernels of
`flat_geometry` (`pair_segments`, `tuple_intersections`), and tuples
enumerated by its `subset_indices` and `product_indices`.
Every pair is considered, so a proximity process holds every pair within
delta wherever its segment lies; for lines, `pair_segments` solves exactly
only the pairs that a screen of matrix products (in R^3 two per slab of
pairs) cannot rule out: a few floating-point operations per pair.  The
exactness of the functionals is guaranteed by the window-radius
precondition radius >= circumradius(A) + delta/2 checked in `f_alpha`.
A segment sample computes its window mask, `window.contains(midpoints)`,
and the lengths it selects once per window
(`SegmentProcessSample.window_mask`, `window_lengths`), so the functionals
evaluated on one sample and window share them; a box window tests the
points against its half sides, computed once per window.  `f_alpha` counts
at alpha = 0 and sums the lengths themselves at alpha = 1, and
`order_statistics` takes a minimum for m = 1: each is the plain formula's
value bit for bit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .closed_form import WindowDescriptor
from .flat_geometry import (Flat, check_orthonormal, flat_views, pair_segments,
                            product_indices, read_only, subset_indices, tuple_intersections)
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
        midpoints = read_only(self.midpoints).reshape(-1, self.n)
        lengths = read_only(self.lengths).reshape(-1)
        directions = read_only(self.directions).reshape(-1, self.n)
        pairs = read_only(self.pairs, int).reshape(-1, 2)
        m = lengths.shape[0]
        if not (midpoints.shape[0] == directions.shape[0] == pairs.shape[0] == m):
            raise ValueError("segment arrays must have a common length")
        # each test is written `not x <= bound`, so NaN fails it too; the
        # reductions are those of min() and max(), without their wrappers
        if m:
            if not (0 < np.minimum.reduce(lengths)
                    and np.maximum.reduce(lengths) <= self.delta + 1e-12):
                raise ValueError("segment lengths must lie in (0, delta]")
            error = np.abs(np.einsum("mn,mn->m", directions, directions) - 1.0)
            if not np.maximum.reduce(error) <= 1e-9 * (2.0 - 1e-9):  # |u| within 1e-9 of 1
                raise ValueError("segment directions must be unit vectors")
        vars(self).update(midpoints=midpoints, lengths=lengths, directions=directions, pairs=pairs,
                          _window_masks={}, _window_lengths={})  # the last two memos, not fields

    def __len__(self) -> int:
        return self.lengths.shape[0]

    def window_mask(self, window: WindowDescriptor) -> np.ndarray:
        """window.contains(midpoints), computed once per window and read-only."""
        mask = self._window_masks.get(window)
        if mask is None:
            mask = self._window_masks[window] = window.contains(self.midpoints)
            mask.flags.writeable = False
        return mask

    def window_lengths(self, window: WindowDescriptor) -> np.ndarray:
        """lengths[window_mask(window)], computed once per window and read-only."""
        lengths = self._window_lengths.get(window)
        if lengths is None:
            lengths = self._window_lengths[window] = self.lengths[self.window_mask(window)]
            lengths.flags.writeable = False
        return lengths


@dataclass(frozen=True)
class IntersectionSample:
    """Intersection q-flats of one realization, as parallel arrays."""

    n: int
    q: int
    bases: np.ndarray    # (m, q, n) orthonormal rows per flat
    offsets: np.ndarray  # (m, n), each orthogonal to its basis rows
    tuples: np.ndarray   # (m, r) generator indices into the source sample(s)

    def __post_init__(self) -> None:
        for name, dtype in (("bases", float), ("offsets", float), ("tuples", int)):
            object.__setattr__(self, name, read_only(getattr(self, name), dtype))
        check_orthonormal(self.bases, self.offsets)
        if self.tuples.ndim != 2 or self.tuples.shape[0] != self.offsets.shape[0]:
            raise ValueError("need one row of generator indices per intersection flat")

    def __len__(self) -> int:
        return self.offsets.shape[0]

    @cached_property
    def flats(self) -> tuple[Flat, ...]:
        return flat_views(self.bases, self.offsets)


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
    intersection flat of dimension q = k_1 + ... + k_r - (r-1) n.  The order
    r, when given, is an integer of at least 2, and a list holds at least 2
    samples of one ambient dimension.
    """
    if order is not None and (isinstance(order, bool)
                              or not isinstance(order, (int, np.integer)) or order < 2):
        raise ValueError(f"order must be an integer >= 2, got order={order!r}")
    single = isinstance(samples, FlatSample)
    if single:  # one sample, one stack, serves every position of a tuple
        if order is None:
            raise ValueError("order is required for a single sample")
        sample_list, r = [samples], int(order)
    else:
        sample_list = list(samples)
        r = len(sample_list)
        if r < 2 or len({s.n for s in sample_list}) > 1:
            raise ValueError("samples must be at least 2 flat samples of one ambient dimension")
        if order is not None and order != r:
            raise ValueError("order must match the number of samples")
    n = sample_list[0].n
    q = (r if single else 1) * sum(s.k for s in sample_list) - (r - 1) * n
    if q < 0:
        raise ValueError("requires k_1 + ... + k_r >= (r-1) n")
    tuples = (subset_indices(len(samples), r) if single
              else product_indices([len(s) for s in sample_list]))
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
    if direction_set is None or direction_set.kind == "full":
        return seg.window_lengths(window)
    return seg.lengths[seg.window_mask(window) & direction_set.contains(seg.directions)]


def f_alpha(seg: SegmentProcessSample, alpha: float, window: WindowDescriptor,
            direction_set: DirectionSet | None = None) -> float:
    """Sum of d^alpha over segments with midpoint in the window and
    direction in the direction set.

    The even direction set weighs each segment by the indicator of its
    canonical direction; a full sphere weighs every segment by 1, so alpha=0
    counts the qualifying segments.  The sum is np.add.reduce(d ** alpha)
    bit for bit: d ** 0 is 1, a sum of ones is their count, and d ** 1 is d.
    """
    if not (math.isfinite(alpha) and alpha >= 0):
        raise ValueError("alpha must be finite and nonnegative")
    lengths = _qualifying_lengths(seg, window, direction_set)
    if alpha == 0:
        return float(lengths.shape[0])
    return float(np.add.reduce(lengths if alpha == 1 else lengths ** alpha))


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
    values = _qualifying_lengths(seg, window, direction_set)
    if alpha != 1:  # d ** 1 is d
        values = values ** alpha
    out = np.full(m, np.inf)
    if m == 1:
        if values.shape[0]:
            out[0] = np.minimum.reduce(values)
        return out
    if m < values.shape[0]:  # the m smallest, in some order
        values = np.partition(values, m - 1)[:m]
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

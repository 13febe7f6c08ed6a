"""Samplers for stationary Poisson flat processes in ball windows and for
the non-Poisson cube-based constructions with prescribed factorial moments.

Flat samples are stored as basis/offset arrays for speed: the `read_only`
copies of what they are given, checked once by `check_orthonormal`, so
`FlatSample.flats`, the `flat_views` of the stacks, cannot fail, and no
caller can change a sample after its check.  Directions come from
`flat_geometry.haar_bases`; a Poisson offset is a standard normal vector
projected onto the direction's orthogonal complement, rescaled into its
disk.  Every sampler accepts a seed (int or sequence) or a ready numpy
Generator; identical seeds reproduce samples byte for byte.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from pathlib import Path
from typing import Sequence

import numpy as np

from . import constants
from ._rng import SeedLike, as_generator, seed_record
from .flat_geometry import (Flat, Subspace, check_orthonormal, flat_views, gram_volumes,
                            haar_bases, read_only, row_norms)
from .measures import GrassmannMeasure


@dataclass(frozen=True)
class SrConstruction:
    """Parameters of the non-Poisson construction: per-cube count law with
    unit factorial moments up to kappa, and the anchor subspace the point
    process lives on (dimension n - k)."""

    kappa: int
    anchor: Subspace


@dataclass(frozen=True)
class FlatProcessSpec:
    """Weakly stationary k-flat process: intensity, directional distribution,
    and the sampling construction (Poisson by default)."""

    n: int
    k: int
    gamma: float
    q: GrassmannMeasure
    kind: SrConstruction | None = None

    def __post_init__(self) -> None:
        if not (0 < self.gamma < math.inf) and self.gamma != 0.0:
            raise ValueError("intensity must be finite and nonnegative")
        if self.q.n != self.n or self.q.k != self.k:
            raise ValueError("directional distribution must live on G(n, k)")
        if abs(self.q.total_mass - 1.0) > 1e-12:
            raise ValueError("directional distribution must have total mass 1")
        if self.kind is not None and self.kind.anchor.k != self.n - self.k:
            raise ValueError("anchor subspace must have dimension n - k")


def _check_radius(radius: float) -> None:
    if not (math.isfinite(radius) and radius >= 0):
        raise ValueError(f"window radius must be finite and nonnegative, got {radius!r}")


@dataclass(frozen=True)
class FlatSample:
    """Flats of one realization, all hitting the ball of the given radius."""

    n: int
    k: int
    radius: float
    bases: np.ndarray      # (m, k, n) orthonormal rows per flat
    offsets: np.ndarray    # (m, n), each orthogonal to its basis rows
    seed: str = "generator"

    def __post_init__(self) -> None:
        _check_radius(self.radius)
        bases = read_only(self.bases).reshape(-1, self.k, self.n)
        offsets = read_only(self.offsets).reshape(-1, self.n)
        if bases.shape[0] != offsets.shape[0]:
            raise ValueError("bases and offsets must pair up")
        # written `not x <= bound`, so NaN fails it too
        if offsets.shape[0] and \
                not np.einsum("mn,mn->m", offsets, offsets).max() <= (self.radius + 1e-9) ** 2:
            raise ValueError("offset norms must not exceed the window radius")
        check_orthonormal(bases, offsets)
        vars(self).update(bases=bases, offsets=offsets)

    def __len__(self) -> int:
        return self.offsets.shape[0]

    @cached_property
    def flats(self) -> tuple[Flat, ...]:
        return flat_views(self.bases, self.offsets)


@dataclass(frozen=True)
class FactorialDistribution:
    """Count distribution on {0, ..., kappa-2, kappa} whose factorial moments
    E[N(N-1)...(N-m+1)] all equal 1 for m = 1..kappa.

    The table is validated once and its CDF kept (read-only), so `sample`
    makes no per-call checks."""

    kappa: int
    probabilities: np.ndarray
    exact: tuple[Fraction, ...] = field(repr=False, default=())
    cdf: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        p = read_only(self.probabilities)
        if p.shape != (self.kappa + 1,):
            raise ValueError("probability table must have length kappa + 1")
        if np.any(p < 0):
            raise ValueError("probabilities must be nonnegative")
        if abs(float(p.sum()) - 1.0) > 1e-14:
            raise ValueError("probabilities must sum to 1")
        if self.kappa >= 1 and p[self.kappa - 1] != 0.0:
            raise ValueError("the weight at kappa - 1 must vanish")
        for m in range(1, self.kappa + 1):
            if abs(self.factorial_moment(m) - 1.0) > 1e-12:
                raise ValueError(f"factorial moment of order {m} must equal 1")
        # Generator.choice's CDF for p, computed as it computes it
        cdf = p.cumsum()
        cdf /= cdf[-1]
        cdf.flags.writeable = False
        vars(self).update(probabilities=p, cdf=cdf)

    def factorial_moment(self, m: int) -> float:
        # i (i - 1) ... (i - m + 1) is math.perm(i, m), exact in floats here
        return math.fsum(math.perm(i, m) * prob
                         for i, prob in enumerate(self.probabilities) if i >= m and prob > 0)

    def sample(self, size: int, rng: np.random.Generator) -> np.ndarray:
        """size int64 counts: the values and stream use of
        rng.choice(kappa + 1, size, p=probabilities), from the kept CDF."""
        return self.cdf.searchsorted(rng.random(size), side="right").astype(np.int64, copy=False)


@functools.lru_cache(maxsize=None, typed=True)
def build_factorial_distribution(kappa: int) -> FactorialDistribution:
    """Construct the count law recursively in exact rational arithmetic.

    Start from P(N=0) = P(N=2) = 1/2 at kappa = 2; each step sets
    P_kappa(i) = P_{kappa-1}(i-1)/i on {1, ..., kappa-2, kappa} and puts the
    remaining mass at 0.  The law is immutable, so it is built once per kappa.
    kappa is an integer from 2 to 170: P(N=kappa) = 1/kappa!, and 171! exceeds
    the float range.
    """
    if isinstance(kappa, bool) or not isinstance(kappa, (int, np.integer)) \
            or not 2 <= kappa <= 170:
        raise ValueError(f"kappa must be an integer from 2 to 170, got kappa={kappa!r}")
    table = {0: Fraction(1, 2), 2: Fraction(1, 2)}
    for k in range(3, kappa + 1):
        support = list(range(1, k - 1)) + [k]
        new = {i: table.get(i - 1, Fraction(0)) / i for i in support}
        new[0] = 1 - sum(new.values())
        table = new
    exact = tuple(table.get(i, Fraction(0)) for i in range(kappa + 1))
    probs = np.array([float(x) for x in exact])
    return FactorialDistribution(kappa=kappa, probabilities=probs, exact=exact)


def sample_poisson(spec: FlatProcessSpec, radius: float, rng: SeedLike) -> FlatSample:
    """One realization of the stationary Poisson k-flat process in a ball.

    The number of flats hitting the window R B^n is Poisson with mean
    gamma * kappa_{n-k} * R^{n-k}; directions follow the directional
    distribution and offsets are uniform in the (n-k)-ball of the window
    radius inside the direction's orthogonal complement: a standard normal
    vector projected onto L-perp, isotropic there, rescaled to length R U^{1/(n-k)}.
    A mean that overflows, or exceeds the 9.2e18 that Generator.poisson
    takes, is rejected before any draw.
    """
    if spec.kind is not None:
        raise ValueError("spec does not describe a Poisson process")
    _check_radius(radius)
    n, k = spec.n, spec.k
    try:
        mean = spec.gamma * constants.ball_volume(n - k) * radius ** (n - k)
    except OverflowError:  # of radius ** (n - k); no flats at gamma = 0 all the same
        mean = math.inf if spec.gamma else 0.0
    if not mean <= 9.2e18:
        raise ValueError(f"expected flat count gamma kappa_(n-k) radius^(n-k) is too large "
                         f"to sample: gamma={spec.gamma!r}, radius={radius!r}")
    record = seed_record(rng)
    gen = as_generator(rng)
    count = int(gen.poisson(mean))
    if count == 0:
        return FlatSample(n, k, radius, np.zeros((0, k, n)), np.zeros((0, n)), record)
    if spec.q.is_isotropic:
        bases = haar_bases(count, n, k, gen)
    else:
        weights = spec.q.weights
        bases = spec.q.bases[gen.choice(len(weights), size=count, p=weights / weights.sum())]
    if n == k:
        return FlatSample(n, k, radius, bases, np.zeros((count, n)), record)
    z = gen.standard_normal((count, n))
    z -= np.einsum("mk,mkn->mn", np.einsum("mkn,mn->mk", bases, z), bases)
    z *= (radius * gen.random(count) ** (1.0 / (n - k))
          / np.sqrt(np.einsum("mn,mn->m", z, z)))[:, None]
    # again: the rescaling magnifies the first pass's round-off along L
    z -= np.einsum("mk,mkn->mn", np.einsum("mkn,mn->mk", bases, z), bases)
    return FlatSample(n, k, radius, bases, z, record)


def sample_cube_process(d: int, dist: FactorialDistribution,
                        cube_index_box: Sequence[tuple[int, int]],
                        rng: SeedLike, stationarize: bool = False) -> np.ndarray:
    """Points of the cube construction over a box of unit-cube indices.

    Each cube [i_1, i_1+1) x ... x [i_d, i_d+1) receives an independent count
    from dist, placed uniformly.  With stationarize=True the process is
    generated on a box enlarged by one cube on every side, shifted by a
    common uniform vector in [0,1]^d, and reported clipped back to the
    requested box, which removes the boundary bias of the shift.
    """
    gen = as_generator(rng)
    box = [(int(lo), int(hi)) for lo, hi in cube_index_box]
    if d < 1 or len(box) != d or any(hi <= lo for lo, hi in box):
        raise ValueError("cube_index_box must give d >= 1 nonempty index ranges")
    gen_box = [(lo - 1, hi + 1) for lo, hi in box] if stationarize else box
    sides = [hi - lo for lo, hi in gen_box]
    total = math.prod(sides)
    counts = dist.sample(total, gen)
    cube_of_point = np.repeat(np.arange(total), counts)
    npts = cube_of_point.shape[0]
    if npts == 0:
        return np.zeros((0, d))
    # corners as (d, npts) rows; a point is its uniform offset plus its corner
    corners = np.array(np.unravel_index(cube_of_point, sides), dtype=float)
    corners += np.array([[lo] for lo, _ in gen_box], dtype=float)
    points = gen.random((npts, d))
    points += corners.T
    if stationarize:
        points += gen.random(d)
        lo = np.array([lo for lo, _ in box], dtype=float)
        hi = np.array([hi for _, hi in box], dtype=float)
        points = points[((points >= lo) & (points < hi)).all(axis=1)]
    return points


def sample_q0_bases(e0: Subspace, n: int, k: int, count: int,
                    rng: SeedLike) -> np.ndarray:
    """Vectorized rejection sampler returning (count, k, n) direction bases,
    in batches of 4 times the missing count, at least 64 and at most 4096."""
    if e0.n != n or e0.k != n - k:
        raise ValueError("anchor must be an (n-k)-dimensional subspace of R^n")
    gen = as_generator(rng)
    anchor = e0.basis
    out = np.zeros((count, k, n))
    filled = 0
    while filled < count:
        m = min(4096, max(4 * (count - filled), 64))
        cand = haar_bases(m, n, k, gen)
        stacked = np.concatenate(
            [np.broadcast_to(anchor, (m,) + anchor.shape), cand], axis=1)
        accept = gen.random(m) < gram_volumes(stacked)
        take = min(int(accept.sum()), count - filled)
        if take:
            out[filled:filled + take] = cand[accept][:take]
            filled += take
    return out


def sr_intensity(n: int, k: int) -> float:
    """Intensity of the anchored construction: 1 / c(n, n-k, k).

    The construction's intensity measure is the invariant measure on the
    affine k-flats scaled by the reciprocal acceptance constant, so it
    matches a Poisson process of this intensity with isotropic directions.
    """
    from .closed_form import c_constant

    return 1.0 / c_constant(n, n - k, k)


def sample_sr_flats(spec: FlatProcessSpec, radius: float, rng: SeedLike,
                    cover_radius: float | None = None) -> FlatSample:
    """One realization of the anchored non-Poisson k-flat process.

    Runs the cube construction inside the anchor subspace over cubes
    covering the disk of radius cover_radius (finite and at least radius;
    default radius + 1), attaches an independent anchored direction to each
    point, and keeps the flats hitting the ball window.

    Flats anchored far outside the window can still hit it when their
    direction nearly contains the anchor point's direction; the default
    cover therefore undercounts slightly.  Pass a larger cover_radius when
    comparing hit counts against the closed-form intensity (the residual
    tail decays like radius/cover_radius).
    """
    if spec.kind is None:
        raise ValueError("spec does not describe the anchored construction")
    _check_radius(radius)
    cover = float(cover_radius) if cover_radius is not None else radius + 1.0
    if not (math.isfinite(cover) and cover >= radius):  # NaN fails too
        raise ValueError(f"cover_radius must be finite and at least the window radius "
                         f"{radius!r}, got {cover_radius!r}")
    record = seed_record(rng)
    gen = as_generator(rng)
    n, k = spec.n, spec.k
    d = n - k
    anchor = spec.kind.anchor
    dist = build_factorial_distribution(spec.kind.kappa)
    extent = int(math.ceil(cover))
    box = [(-extent, extent)] * d
    local = sample_cube_process(d, dist, box, gen)
    if local.shape[0] == 0:
        return FlatSample(n, k, radius, np.zeros((0, k, n)), np.zeros((0, n)), record)
    points = local @ anchor.basis
    bases = sample_q0_bases(anchor, n, k, points.shape[0], gen)
    proj = np.einsum("mkn,mn->mk", bases, points)
    offsets = points - np.einsum("mk,mkn->mn", proj, bases)
    keep = row_norms(offsets) <= radius
    return FlatSample(n, k, radius, bases[keep], offsets[keep], record)


def write_flat_sample(sample: FlatSample, path: str | Path) -> None:
    """Serialize a sample: header "n k R seed", then one flat per line as
    "k offset[n] basis[k*n]"."""
    lines = [f"{sample.n} {sample.k} {sample.radius!r} {sample.seed}"]
    for i in range(len(sample)):
        nums = [str(sample.k)]
        nums += [repr(float(x)) for x in sample.offsets[i]]
        nums += [repr(float(x)) for x in sample.bases[i].ravel()]
        lines.append(" ".join(nums))
    Path(path).write_text("\n".join(lines) + "\n")


def read_flat_sample(path: str | Path) -> FlatSample:
    lines = [ln for ln in Path(path).read_text().splitlines() if ln.strip()]
    head = lines[0].split()
    n, k, radius = int(head[0]), int(head[1]), float(head[2])
    seed = head[3] if len(head) > 3 else "generator"
    bases, offsets = [], []
    for ln in lines[1:]:
        parts = ln.split()
        if int(parts[0]) != k:
            raise ValueError(f"{path}: inconsistent flat dimension")
        nums = [float(tok) for tok in parts[1:]]
        if len(nums) != n + k * n:
            raise ValueError(f"{path}: flat line needs {n + k * n} floats")
        offsets.append(nums[:n])
        bases.append(nums[n:])
    return FlatSample(n, k, radius, bases, offsets, seed)  # which shapes the lists

"""Zonotopes of discrete even generating measures and their area measures.

A zonotope is stored by half-length generators: the segment of a +-pair of
pair mass q runs from -(q/2)u to +(q/2)u, so the support function of the
zonotope equals the cosine-moment integral of half the generating measure.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from math import comb

import numpy as np

from .flat_geometry import BLOCK_ROWS, complement_bases, gram_volumes, subset_indices
from .measures import GrassmannMeasure, SphereMeasure, positive_weights, read_only

DROP_TOL = 1e-10
MERGE_TOL = 1e-8


@dataclass(frozen=True)
class Zonotope:
    """Minkowski sum of centered segments [-w_i u_i, +w_i u_i].

    units (m, n) holds the directions u_i and half_lengths (m,) the w_i > 0,
    both read-only; `generators` is their (u_i, w_i) view.
    """

    n: int
    units: np.ndarray
    half_lengths: np.ndarray

    def __post_init__(self) -> None:
        units, half_lengths = read_only(self.units), read_only(self.half_lengths)
        if units.ndim != 2 or units.shape[1] != self.n or not np.all(np.isfinite(units)):
            raise ValueError("generator directions must be finite n-vectors")
        if not positive_weights(half_lengths, len(units)):
            raise ValueError("generator half-lengths must be finite and positive")
        object.__setattr__(self, "units", units)
        object.__setattr__(self, "half_lengths", half_lengths)

    @cached_property
    def generators(self) -> tuple[tuple[np.ndarray, float], ...]:
        return tuple(zip(self.units, self.half_lengths.tolist()))

    def scaled(self, factor: float) -> "Zonotope":
        return Zonotope(self.n, self.units, self.half_lengths * factor)


def from_measure(mu: SphereMeasure) -> Zonotope:
    """Zonotope whose support function is (1/2) * cosine moment of mu.

    Each +-pair of pair mass q contributes the segment with endpoints
    +-(q/2) u.  Only atomic measures generate zonotopes here.
    """
    if not mu.is_atomic:
        raise ValueError("zonotope construction requires an atomic even measure")
    return Zonotope(mu.n, mu.units, mu.weights / 2.0)


def support(z: Zonotope, x: np.ndarray) -> float:
    """Support function h(Z, x) = sum_i w_i |<u_i, x>|."""
    return float(z.half_lengths @ np.abs(z.units @ np.asarray(x, dtype=float)))


def _subsets(z: Zonotope, r: int):
    """The r-subsets of z's generators as an (m, r) index array in
    lexicographic order; the subsets' nabla_r, from one stacked Gram volume;
    and their terms prod_i (2 w_i) * nabla_r of V_r(z)."""
    idx = subset_indices(len(z.units), r)
    vols = np.minimum(gram_volumes(z.units[idx]), 1.0)
    return idx, vols, np.prod(2.0 * z.half_lengths[idx], axis=1) * vols


def intrinsic_volume(z: Zonotope, m: int) -> float:
    """m-th intrinsic volume of the zonotope.

    V_m(Z) = sum over m-subsets I of generators of the product of the full
    segment lengths (2 w_i) times the parallelepiped volume of the subset's
    directions.  V_0 = 1; subsets spanning less than m dimensions drop out.
    """
    if not 0 <= m <= z.n:
        raise ValueError(f"need 0 <= m <= n, got m={m}, n={z.n}")
    if m == 0:
        return 1.0
    return float(_subsets(z, m)[2].sum())


def _merge(projectors: np.ndarray, tol: float):
    """Indices of the first projector of each class and each projector's
    label: in input order, a projector joins the first representative within
    tol in Frobenius norm, else starts a class.  A block of rows meets every
    earlier projector in one norm, about BLOCK_ROWS pairs a block."""
    count = len(projectors)
    is_rep, first = np.ones(count, dtype=bool), np.arange(count)
    step = max(1, BLOCK_ROWS // max(count, 1))
    for r0 in range(0, count, step):
        r1 = min(count, r0 + step)
        near = np.linalg.norm(projectors[r0:r1, None] - projectors[None, :r1], axis=(2, 3)) < tol
        near &= np.tri(r1 - r0, r1, r0 - 1, dtype=bool)  # earlier projectors only
        for i in np.flatnonzero(near.any(axis=1)).tolist():
            hit = np.flatnonzero(near[i] & is_rep[:r1])
            if hit.size:
                is_rep[r0 + i], first[r0 + i] = False, hit[0]
    return np.flatnonzero(is_rep).tolist(), (np.cumsum(is_rep) - 1)[first]


def merge_grassmann_atoms(atoms):
    """Merge weighted subspace atoms whose projectors coincide within MERGE_TOL."""
    atoms = list(atoms)
    reps, labels = _merge(np.array([sub.projector() for sub, _ in atoms]), MERGE_TOL)
    sums = np.bincount(labels, [w for _, w in atoms], len(reps))
    return [(atoms[i][0], w) for i, w in zip(reps, sums.tolist())]


def mu_Q_r(q: SphereMeasure, r: int) -> GrassmannMeasure:
    """Hyperplane-intersection measure of an atomic even measure.

    The r-fold integral of the parallelepiped volume nabla_r over the atomic
    even measure concentrates on the subspaces u_1-perp ... u_r-perp.  Each
    unordered set of r distinct pairs {(u_i, q_i)} receives the weight

        r! * prod_i q_i * nabla_r(u_1, ..., u_r),

    which accounts for the r! orderings and the 2^r sign choices of the
    ordered tuples (each sign choice carries mass prod q_i / 2^r and leaves
    nabla_r and the intersection unchanged).  Tuples with a repeated pair
    contribute nothing since nabla_r vanishes; near-degenerate sets with
    nabla_r <= 1e-10 are dropped.  The weight is r! times the set's term of
    V_r of the zonotope of q, whose segments have full length 2 w_i = q_i.
    """
    if not 2 <= r <= q.n - 1:
        raise ValueError(f"need 2 <= r <= n-1, got r={r}, n={q.n}")
    z = from_measure(q)
    idx, vols, terms = _subsets(z, r)
    keep = vols > DROP_TOL
    comps = complement_bases(z.units[idx[keep]])
    reps, labels = _merge(np.swapaxes(comps, 1, 2) @ comps, MERGE_TOL)
    return GrassmannMeasure(q.n, q.n - r, comps[reps],
                            np.bincount(labels, math.factorial(r) * terms[keep], len(reps)))


def area_measure(q: SphereMeasure, r: int) -> SphereMeasure:
    """r-th area measure of the zonotope of q, as a subsphere mixture.

    Lifting the hyperplane-intersection measure to the sphere and dividing by
    r! * binom(n-1, r) yields S_r(Z_q, .): the mixture has one component per
    contributing direction set, supported on the unit sphere of the
    intersection subspace.
    """
    mu = mu_Q_r(q, r)
    scale = float(math.factorial(r)) * comb(q.n - 1, r)
    return SphereMeasure(q.n, components=(
        GrassmannMeasure(mu.n, mu.k, mu.bases, mu.weights / scale),))

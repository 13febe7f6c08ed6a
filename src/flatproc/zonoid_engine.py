"""Zonotopes of discrete even generating measures and their area measures.

A zonotope is stored by half-length generators: the segment of a +-pair of
pair mass q runs from -(q/2)u to +(q/2)u, so the support function of the
zonotope equals the cosine-moment integral of half the generating measure.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, combinations
from math import comb

import numpy as np

from . import constants
from .flat_geometry import Subspace, complement_bases, gram_volumes
from .measures import GrassmannMeasure, SphereMeasure, finite_positive

DROP_TOL = 1e-10
MERGE_TOL = 1e-8


@dataclass(frozen=True)
class Zonotope:
    """Minkowski sum of centered segments [-w_i u_i, +w_i u_i].

    generators is a tuple of (canonical unit direction, half-length w_i > 0).
    """

    n: int
    generators: tuple[tuple[np.ndarray, float], ...]

    def __post_init__(self) -> None:
        for u, w in self.generators:
            if u.shape != (self.n,) or not np.all(np.isfinite(u)):
                raise ValueError("generator directions must be finite n-vectors")
            if not finite_positive(w):
                raise ValueError("generator half-lengths must be finite and positive")

    def direction_matrix(self) -> np.ndarray:
        if not self.generators:
            return np.zeros((0, self.n))
        return np.vstack([u for u, _ in self.generators])

    def half_lengths(self) -> np.ndarray:
        return np.array([w for _, w in self.generators])

    def scaled(self, factor: float) -> "Zonotope":
        return Zonotope(self.n, tuple((u, w * factor) for u, w in self.generators))


def from_measure(mu: SphereMeasure) -> Zonotope:
    """Zonotope whose support function is (1/2) * cosine moment of mu.

    Each +-pair of pair mass q contributes the segment with endpoints
    +-(q/2) u.  Only atomic measures generate zonotopes here.
    """
    if not mu.is_atomic:
        raise ValueError("zonotope construction requires an atomic even measure")
    return Zonotope(mu.n, tuple((u, w / 2.0) for u, w in mu.pair_atoms))


def support(z: Zonotope, x: np.ndarray) -> float:
    """Support function h(Z, x) = sum_i w_i |<u_i, x>|."""
    x = np.asarray(x, dtype=float)
    if not z.generators:
        return 0.0
    return float(z.half_lengths() @ np.abs(z.direction_matrix() @ x))


def _subsets(z: Zonotope, r: int):
    """The generator directions of z; their r-subsets as an (m, r) index
    array in lexicographic order; the subsets' nabla_r, from one stacked
    Gram volume; and their terms prod_i (2 w_i) * nabla_r of V_r(z)."""
    units = z.direction_matrix()
    count = comb(units.shape[0], r)
    idx = np.fromiter(chain.from_iterable(combinations(range(units.shape[0]), r)),
                      dtype=np.intp, count=count * r).reshape(count, r)
    vols = np.minimum(gram_volumes(units[idx]), 1.0)
    return units, idx, vols, np.prod(2.0 * z.half_lengths()[idx], axis=1) * vols


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
    return float(_subsets(z, m)[3].sum())


def _merge(projectors: np.ndarray, tol: float):
    """Indices of the first projector of each class (projectors within tol
    of it in Frobenius norm) and each projector's class label; each
    projector is compared with the stacked representatives in one norm.
    np.bincount(labels, weights) sums the classes in input order."""
    reps, labels = [], np.empty(len(projectors), dtype=np.intp)
    for i, p in enumerate(projectors):
        hit = np.flatnonzero(np.linalg.norm(projectors[reps] - p, axis=(1, 2)) < tol)
        if hit.size:
            labels[i] = hit[0]
        else:
            labels[i] = len(reps)
            reps.append(i)
    return reps, labels


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
    units, idx, vols, terms = _subsets(from_measure(q), r)
    keep = vols > DROP_TOL
    comps = complement_bases(units[idx[keep]])
    reps, labels = _merge(np.swapaxes(comps, 1, 2) @ comps, MERGE_TOL)
    if not reps:
        return GrassmannMeasure.zero(q.n, q.n - r)
    sums = np.bincount(labels, math.factorial(r) * terms[keep])
    return GrassmannMeasure.discrete([(Subspace(comps[i]), w) for i, w in zip(reps, sums)])


def mu_Q_r_total_mass(q: SphereMeasure, r: int) -> float:
    """Total mass of mu_Q_r, r! V_r of the zonotope of q, without building
    the atoms and without the drop cut (0 when degenerate)."""
    return math.factorial(r) * intrinsic_volume(from_measure(q), r)


def area_measure(q: SphereMeasure, r: int) -> SphereMeasure:
    """r-th area measure of the zonotope of q, as a subsphere mixture.

    Lifting the hyperplane-intersection measure to the sphere and dividing by
    r! * binom(n-1, r) yields S_r(Z_q, .): the mixture has one component per
    contributing direction set, supported on the unit sphere of the
    intersection subspace.
    """
    mu = mu_Q_r(q, r)
    scale = float(math.factorial(r)) * comb(q.n - 1, r)
    return SphereMeasure.subsphere_mixture(
        q.n, [(sub, w / scale) for sub, w in mu.atoms])


def area_measure_total_mass(q: SphereMeasure, r: int) -> float:
    """Total mass S_r(Z_q, S^{n-1}); zero for degenerate configurations."""
    scale = float(math.factorial(r)) * comb(q.n - 1, r)
    return constants.sphere_surface(q.n - r) * mu_Q_r_total_mass(q, r) / scale

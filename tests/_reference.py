"""Scalar geometry that only the tests use: an independent intersection solve
(one `lstsq` and one SVD per tuple) that the batched `tuple_intersections`
is compared against, the SVD complement that `complement_bases` is compared
against, the all-pairs atom merge that `_merge` is compared against, small
helpers on rotations, flats and samples (a Haar subspace, a projection onto
a subspace, the flat of a direction through a point), the Grassmann metric
of two subspaces, and the closed totals of mu_Q_r and of the area measures.
"""
from __future__ import annotations

import math

import numpy as np

from flatproc import constants
from flatproc._rng import SeedLike, as_generator
from flatproc.flat_geometry import (BLOCK_ROWS, GENERAL_POSITION_TOL, DegeneratePairError, Flat,
                                    Subspace, complement, grassmann_distance, gram_volumes,
                                    haar_bases, subspace_determinant)
from flatproc.measures import SphereMeasure
from flatproc.simulator import FlatSample
from flatproc.zonoid_engine import from_measure, intrinsic_volume


def svd_complement_bases(bases: np.ndarray) -> np.ndarray:
    """Orthonormal complement bases, (m, n-k, n), of a stack of (k, n) bases:
    the trailing left-singular vectors of a full SVD of each transposed
    basis."""
    k = bases.shape[1]
    u, _, _ = np.linalg.svd(np.swapaxes(bases, 1, 2))
    return np.swapaxes(u[:, :, k:], 1, 2)


def merge_all_pairs(projectors: np.ndarray, tol: float):
    """The atom merge by the norm of every difference: in input order a
    projector joins the first representative within tol in Frobenius norm,
    else starts a class.  A block of rows meets every earlier projector in
    one stacked norm, about BLOCK_ROWS pairs a block.  Returns the
    representatives and each projector's label, as `_merge` does."""
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


def random_rotation(n: int, rng: SeedLike) -> np.ndarray:
    """Haar-distributed rotation matrix (determinant +1)."""
    gen = as_generator(rng)
    q, r = np.linalg.qr(gen.standard_normal((n, n)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def haar_sample(n: int, k: int, rng: SeedLike) -> Subspace:
    """Haar-distributed k-dimensional subspace of R^n."""
    if not 0 < k < n:
        raise ValueError(f"need 0 < k < n, got k={k}, n={n}")
    return Subspace(haar_bases(1, n, k, rng)[0])


def project(sub: Subspace, x: np.ndarray) -> np.ndarray:
    """Orthogonal projection of x onto the subspace."""
    if sub.k == 0:
        return np.zeros(sub.n)
    return (np.asarray(x, dtype=float) @ sub.basis.T) @ sub.basis


def through_point(direction: Subspace, point: np.ndarray) -> Flat:
    """The flat with the given direction passing through point."""
    point = np.asarray(point, dtype=float)
    return Flat(direction, point - project(direction, point))


def rotate_subspace(u: Subspace, rotation: np.ndarray) -> Subspace:
    return Subspace(u.basis @ rotation.T)


def parallelepiped_volume(vectors) -> float:
    """nabla_k(u_1,...,u_k): k-volume of the parallelepiped of unit vectors.

    Equals the subspace determinant of the spanned lines; evaluated directly
    from the Gram matrix so that dependent inputs yield exactly 0.
    """
    g = np.vstack([np.asarray(v, dtype=float) for v in vectors])
    return min(float(gram_volumes(g[None])[0]), 1.0)


def distance_to_point(flat: Flat, x: np.ndarray) -> float:
    d = np.asarray(x, dtype=float) - flat.offset
    return float(np.linalg.norm(d - project(flat.direction, d)))


def contains_flat(flat: Flat, other: Flat, tol: float = 1e-8) -> bool:
    """True if every point of `other` lies within tol of `flat`."""
    if distance_to_point(flat, other.offset) > tol:
        return False
    for row in other.direction.basis:
        if distance_to_point(flat, other.offset + row) > tol:
            return False
    return True


def translate(sample: FlatSample, z: np.ndarray) -> FlatSample:
    """Shift every flat by z (window bookkeeping enlarges as needed)."""
    z = np.asarray(z, dtype=float)
    if len(sample) == 0:
        return sample
    proj = np.einsum("mkn,n->mk", sample.bases, z)
    offsets = sample.offsets + z - np.einsum("mk,mkn->mn", proj, sample.bases)
    radius = float(np.max(np.linalg.norm(offsets, axis=1), initial=sample.radius))
    return FlatSample(sample.n, sample.k, radius, sample.bases, offsets,
                      seed=sample.seed + "|translated")


def _intersection_flat(flats) -> Flat:
    """Intersection of flats whose complement bases are independent."""
    n = flats[0].n
    rows, rhs = [], []
    for flat in flats:
        comp = complement(flat.direction).basis
        rows.append(comp)
        rhs.append(comp @ flat.offset)
    normal = np.vstack(rows)
    target = np.concatenate(rhs)
    point, _, rank, _ = np.linalg.lstsq(normal, target, rcond=None)
    if rank < normal.shape[0]:
        raise DegeneratePairError("degenerate pair")
    q = n - normal.shape[0]
    if q == 0:
        direction = Subspace.trivial(n)
    else:
        _, _, vt = np.linalg.svd(normal)
        direction = Subspace(vt[n - q:])
    return through_point(direction, point)


def intersect_flats(flats) -> Flat:
    """Intersection flat of r flats with sum of dims >= (r-1)n.

    Raises DegeneratePairError when the configuration is not in general
    position (subspace determinant of the directions <= 1e-10).
    """
    flats = list(flats)
    det = subspace_determinant([f.direction for f in flats])
    if det <= GENERAL_POSITION_TOL:
        raise DegeneratePairError("degenerate pair")
    return _intersection_flat(flats)


def grassmann_metric(u1: Subspace, u2: Subspace) -> float:
    """Square root of grassmann_distance; satisfies the triangle inequality.

    grassmann_distance itself is a squared Frobenius deviation and is not a
    metric; its square root is the Frobenius distance of the direct rotation
    from the identity and is used wherever a genuine metric table is needed.
    """
    return float(np.sqrt(grassmann_distance(u1, u2)))


def mu_Q_r_total_mass(q: SphereMeasure, r: int) -> float:
    """Total mass of mu_Q_r, r! V_r of the zonotope of q, without building
    the atoms and without the drop cut (0 when degenerate)."""
    return math.factorial(r) * intrinsic_volume(from_measure(q), r)


def area_measure_total_mass(q: SphereMeasure, r: int) -> float:
    """Total mass S_r(Z_q, S^{n-1}); zero for degenerate configurations."""
    scale = float(math.factorial(r)) * math.comb(q.n - 1, r)
    return constants.sphere_surface(q.n - r) * mu_Q_r_total_mass(q, r) / scale

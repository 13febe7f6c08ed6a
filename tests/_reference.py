"""Scalar geometry that only the tests use: the stacked einsum offset
projection and the np.linalg.norm normalization that `sample_poisson` and
`q_factors` used on lines, which their one-dot and wrapper-free forms must
match byte for byte, an independent intersection solve
(one `lstsq` and one SVD per tuple) that the batched `tuple_intersections`
is compared against, the stacked Gram solve of flat pairs that the k >= 2
branch of `pair_segments` is compared against, the SVD complement that
`complement_bases` is compared against, the all-pairs atom merge that
`_merge` is compared against, small
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
                                    Subspace, _sign_rows, _touch_scale, complement,
                                    grassmann_distance, gram_volumes, haar_bases, row_norms,
                                    subspace_determinant)
from flatproc.measures import SphereMeasure
from flatproc.simulator import FlatSample
from flatproc.zonoid_engine import from_measure, intrinsic_volume


def norm_q_factors(g: np.ndarray) -> np.ndarray:
    """Lines of an (m, 1, n) stack normalized by np.linalg.norm."""
    return g / np.linalg.norm(g, axis=2, keepdims=True)


def einsum_project_off(bases: np.ndarray, z: np.ndarray) -> np.ndarray:
    """z less its projection onto the row span of each (k, n) basis, by the
    stacked pair of einsums."""
    return z - np.einsum("mk,mkn->mn", np.einsum("mkn,mn->mk", bases, z), bases)


def einsum_poisson_lines(n: int, gamma: float, radius: float, seed: int):
    """(bases, offsets) of `sample_poisson` for isotropic lines of intensity
    gamma in R^n, drawn from the same stream in the same order with
    `norm_q_factors` and `einsum_project_off`."""
    gen = np.random.default_rng(seed)
    count = int(gen.poisson(gamma * constants.ball_volume(n - 1) * radius ** (n - 1)))
    if count == 0:
        return np.zeros((0, 1, n)), np.zeros((0, n))
    bases = norm_q_factors(gen.standard_normal((count, 1, n)))
    z = einsum_project_off(bases, gen.standard_normal((count, n)))
    z *= (radius * gen.random(count) ** (1.0 / (n - 1))
          / np.sqrt(np.einsum("mn,mn->m", z, z)))[:, None]
    return bases, einsum_project_off(bases, z)


def svd_complement_bases(bases: np.ndarray) -> np.ndarray:
    """Orthonormal complement bases, (m, n-k, n), of a stack of (k, n) bases:
    the trailing left-singular vectors of a full SVD of each transposed
    basis."""
    k = bases.shape[1]
    u, _, _ = np.linalg.svd(np.swapaxes(bases, 1, 2))
    return np.swapaxes(u[:, :, k:], 1, 2)


def gram_pair_segments(bases_a, offs_a, bases_b, offs_b, single, delta):
    """`pair_segments` of flat pairs by the stacked Gram solve, every pair at
    once: the normal equations of min |(a - b) + G^T w|, G = [B_E; -B_F],
    with the volume sqrt(det(G G^T)) from `gram_volumes`; the same touch cut,
    delta test, pair order and outputs."""
    n = offs_a.shape[1]
    pairs = (np.array(np.triu_indices(offs_a.shape[0], 1)) if single
             else np.indices((offs_a.shape[0], offs_b.shape[0])).reshape(2, -1))
    scale_a, scale_b = (_touch_scale(np.sqrt(np.einsum("mn,mn->m", o, o)), n)
                        for o in (offs_a, offs_b))
    g = np.concatenate([bases_a[pairs[0]], -bases_b[pairs[1]]], axis=1)
    vol = gram_volumes(g)
    ok = vol > GENERAL_POSITION_TOL
    g, vol, pairs = g[ok], vol[ok], pairs[:, ok]
    i, j = pairs
    a, b = offs_a[i], offs_b[j]
    rhs = -np.einsum("mkn,mn->mk", g, a - b)
    w = np.linalg.solve(g @ np.swapaxes(g, 1, 2), rhs[..., None])[..., 0]
    k1 = bases_a.shape[1]
    x_e = a + np.einsum("mk,mkn->mn", w[:, :k1], g[:, :k1])
    x_f = b - np.einsum("mk,mkn->mn", w[:, k1:], g[:, k1:])
    gap, mids = x_e - x_f, (x_e + x_f) / 2.0
    lengths = row_norms(gap)
    keep = lengths > np.maximum(np.maximum(scale_a.take(i), scale_b.take(j)) / vol, 1e-12)
    keep &= lengths <= delta
    gap, lengths = gap[keep], lengths[keep]
    return mids[keep], lengths, _sign_rows(gap / lengths[:, None]), pairs.T[keep]


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

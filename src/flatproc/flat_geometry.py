"""Exact linear algebra on linear and affine subspaces.

Subspaces are stored as stacks of orthonormal row vectors.  Affine flats are
a direction subspace plus an offset in its orthogonal complement.  Operations
are pure and values immutable.  The array kernels work on (m, k, n) stacks of
bases; the scalar `closest_pair` and `intersect_flats` are their reference.
The line solve of `pair_segments` works on (n, m) coordinate rows, one
contiguous row per coordinate, with `row_dots` for each block's dot products.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, combinations
from math import comb

import numpy as np

from ._rng import SeedLike, as_generator

ORTHO_TOL = 1e-12
RANK_TOL = 1e-10
GENERAL_POSITION_TOL = 1e-10
# pairs per slab of `pair_segments` and tuples per block of
# `tuple_intersections`: bounds their temporaries (about 0.5 kB per pair of
# 2-flats in R^5, about 0.1 kB per screened line pair) whatever the sample size
BLOCK_ROWS = 1 << 14
# line pairs with 1 - c^2 below this (c the cosine of their directions) skip
# the screen of `pair_segments` and go to the exact solve: the screen's
# round-off grows like 1 / (1 - c^2)
SCREEN_TAU = 1e-6
# samples with fewer line pairs than this skip the screen: it costs more than
# it saves below about 1,200 pairs (isotropic lines in R^3 and R^4, delta 1,
# screen forced on and off, timed on a 2-vCPU x86-64 host with one BLAS thread)
SCREEN_MIN_PAIRS = 1200


class DegeneratePairError(ValueError):
    """Raised when a pair of flats is not in general position."""


def canonical_units(units: np.ndarray) -> np.ndarray:
    """Copy of a stack of unit vectors, each row signed so that its first
    coordinate of magnitude above 1e-12 is positive."""
    units = np.array(units, dtype=float)
    lead = units[:, 0]
    for col in units.T[1:]:  # past leading coordinates within 1e-12 of 0
        lead = np.where(np.abs(lead) <= 1e-12, col, lead)
    # x * 1 and x * -1 are exact, signed zeros included
    units *= np.where(lead < -1e-12, -1.0, 1.0)[:, None]
    return units


def row_norms(x: np.ndarray) -> np.ndarray:
    """np.linalg.norm(x, axis=1) of x in C order bit for bit, for any layout
    of x; below 8 columns summed column by column in place, in numpy's order
    for such short rows, without its row loop."""
    if not 0 < x.shape[1] < 8:
        return np.linalg.norm(np.ascontiguousarray(x), axis=1)
    total = x[:, 0] * x[:, 0]
    for col in x.T[1:]:
        total += col * col
    return np.sqrt(total, out=total)


def row_dots(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Dot products of the columns of two (n, m) coordinate-row arrays:
    np.einsum("mn,mn->m", x.T, y.T) of C-ordered (m, n) copies bit for bit.
    Below 8 coordinates numpy's kernel sums the even and the odd coordinates
    apart, in order, and adds the two sums to its zeroed output, 0 + (even +
    odd), which is (0 + even) + odd: -0 comes out +0 either way."""
    n = x.shape[0]
    if not 0 < n < 8:
        return np.einsum("mn,mn->m", x.T.copy(), y.T.copy())
    prods = x * y
    total = prods[0] + 0.0  # a fresh array, which frees the products
    for k in range(2, n, 2):
        total += prods[k]
    if n > 1:
        odd = prods[1]
        for k in range(3, n, 2):
            odd += prods[k]
        total += odd
    return total


def canonical_unit(u: np.ndarray) -> np.ndarray:
    """Normalize u and pick the lexicographically larger of +-u.

    The sign convention identifies a line in G(n,1) with a single point of
    the sphere; measures on lines become even sphere measures under it.
    """
    u = np.asarray(u, dtype=float)
    norm = float(np.linalg.norm(u))
    if not 1e-12 <= norm < np.inf:  # NaN fails too
        raise ValueError(f"cannot canonicalize a near-zero or non-finite vector, got {u}")
    return canonical_units((u / norm)[None])[0]


@dataclass(frozen=True)
class Subspace:
    """A k-dimensional linear subspace of R^n with an orthonormal basis.

    basis has shape (k, n); rows are pairwise orthonormal within 1e-10.
    k = 0 (empty basis) denotes the trivial subspace.
    """

    basis: np.ndarray

    def __post_init__(self) -> None:
        basis = np.atleast_2d(np.asarray(self.basis, dtype=float))
        if basis.size == 0:
            basis = basis.reshape(0, basis.shape[-1] if basis.ndim == 2 else 0)
        object.__setattr__(self, "basis", basis)
        k, n = basis.shape
        if k > n:
            raise ValueError(f"subspace dimension {k} exceeds ambient dimension {n}")
        if k > 0:
            gram = basis @ basis.T
            gram.reshape(-1)[::k + 1] -= 1.0  # B B^T - I, the diagonal lowered in place
            if not np.abs(gram).max() <= 1e-10:  # NaN fails too
                raise ValueError("basis rows are not orthonormal")
        basis.flags.writeable = False

    @property
    def n(self) -> int:
        return self.basis.shape[1]

    @property
    def k(self) -> int:
        return self.basis.shape[0]

    def projector(self) -> np.ndarray:
        """Orthogonal projector basis.T @ basis onto the subspace, shape
        (n, n): computed on the first call, then the same read-only array."""
        return self._projector

    @cached_property
    def _projector(self) -> np.ndarray:
        p = self.basis.T @ self.basis
        p.flags.writeable = False
        return p

    def project(self, x: np.ndarray) -> np.ndarray:
        """Orthogonal projection of x onto the subspace."""
        if self.k == 0:
            return np.zeros(self.n)
        return (np.asarray(x, dtype=float) @ self.basis.T) @ self.basis

    def same_span(self, other: "Subspace", tol: float = 1e-8) -> bool:
        if self.n != other.n or self.k != other.k:
            return False
        d = (self.projector() - other.projector()).ravel()
        return bool(np.sqrt(d @ d) < tol)  # np.linalg.norm's Frobenius fast path

    @staticmethod
    def full(n: int) -> "Subspace":
        return Subspace(np.eye(n))

    @staticmethod
    def trivial(n: int) -> "Subspace":
        return Subspace(np.zeros((0, n)))

    @staticmethod
    def span(*vectors: np.ndarray) -> "Subspace":
        return orthonormalize(list(vectors))


@dataclass(frozen=True)
class Flat:
    """An affine flat E = L + x with direction L and offset x in L-perp."""

    direction: Subspace
    offset: np.ndarray

    def __post_init__(self) -> None:
        offset = np.asarray(self.offset, dtype=float)
        object.__setattr__(self, "offset", offset)
        if offset.shape != (self.direction.n,):
            raise ValueError("offset length must equal the ambient dimension")
        if self.direction.k > 0:
            inner = self.direction.basis @ offset
            if np.max(np.abs(inner), initial=0.0) >= ORTHO_TOL:
                raise ValueError("offset is not orthogonal to the direction subspace")
        offset.flags.writeable = False

    @property
    def n(self) -> int:
        return self.direction.n

    @property
    def k(self) -> int:
        return self.direction.k

    @staticmethod
    def through_point(direction: Subspace, point: np.ndarray) -> "Flat":
        """The flat with the given direction passing through point."""
        point = np.asarray(point, dtype=float)
        return Flat(direction, point - direction.project(point))

    def distance_to_point(self, x: np.ndarray) -> float:
        d = np.asarray(x, dtype=float) - self.offset
        return float(np.linalg.norm(d - self.direction.project(d)))

    def contains_flat(self, other: "Flat", tol: float = 1e-8) -> bool:
        """True if every point of `other` lies within tol of this flat."""
        if self.distance_to_point(other.offset) > tol:
            return False
        for row in other.direction.basis:
            if self.distance_to_point(other.offset + row) > tol:
                return False
        return True


@dataclass(frozen=True)
class ProximitySegment:
    """The perpendicular segment realizing the distance of two flats.

    midpoint = (x_E + x_F)/2, length = |x_E - x_F|, direction the
    sign-canonicalized unit vector of x_E - x_F, indices the generating pair.
    """

    midpoint: np.ndarray
    length: float
    direction: np.ndarray
    indices: tuple[int, int] = field(default=(-1, -1))

    def __post_init__(self) -> None:
        midpoint = np.asarray(self.midpoint, dtype=float)
        direction = np.asarray(self.direction, dtype=float)
        object.__setattr__(self, "midpoint", midpoint)
        object.__setattr__(self, "direction", direction)
        if self.length <= 0:
            raise ValueError("segment length must be positive")
        if abs(np.linalg.norm(direction) - 1.0) >= ORTHO_TOL * 10:
            raise ValueError("segment direction must be a unit vector")
        midpoint.flags.writeable = False
        direction.flags.writeable = False


def orthonormalize(vectors) -> Subspace:
    """Orthonormal basis of the span of the input vectors.

    Gram-Schmidt with re-orthogonalization; vectors whose residual falls
    below RANK_TOL are treated as dependent, so the result's dimension is the
    numerical rank of the input.
    """
    vecs = [np.asarray(v, dtype=float) for v in vectors]
    if not vecs:
        raise ValueError("need at least one vector (possibly zero) to fix the ambient dimension")
    n = vecs[0].shape[0]
    rows: list[np.ndarray] = []
    for v in vecs:
        if v.shape != (n,):
            raise ValueError("all vectors must share a common length")
        w = v.copy()
        for _ in range(2):  # second pass stabilizes near-dependent input
            for b in rows:
                w -= (w @ b) * b
        norm = float(np.linalg.norm(w))
        if norm > RANK_TOL:
            rows.append(w / norm)
    if not rows:
        return Subspace.trivial(n)
    return Subspace(np.vstack(rows))


def complement_bases(bases: np.ndarray) -> np.ndarray:
    """Orthonormal complement bases, (m, n-k, n), for a stack of (k, n) bases."""
    k = bases.shape[1]
    # full SVD of the transposed bases: the trailing left-singular vectors
    # span the orthogonal complement of each row space
    u, _, _ = np.linalg.svd(np.swapaxes(bases, 1, 2))
    return np.swapaxes(u[:, :, k:], 1, 2)


def complement(u: Subspace) -> Subspace:
    """Orthogonal complement, of dimension n - k."""
    return Subspace(complement_bases(u.basis[None])[0])


def subset_indices(m: int, r: int) -> np.ndarray:
    """The r-subsets of range(m), lexicographic, as a (C(m, r), r) array."""
    return np.fromiter(chain.from_iterable(combinations(range(m), r)),
                       dtype=np.intp, count=comb(m, r) * r).reshape(comb(m, r), r)


def gram_volumes(stacks: np.ndarray) -> np.ndarray:
    """Volume of the parallelepiped spanned by the rows of each (p, n) stack:
    the square root of its Gram determinant, 0 for dependent rows."""
    det = np.linalg.det(stacks @ np.swapaxes(stacks, 1, 2))
    return np.sqrt(np.maximum(det, 0.0))


def subspace_determinant(subspaces) -> float:
    """Subspace determinant [L_1, ..., L_r] in [0, 1].

    For sum of dimensions <= n this is the volume of the parallelepiped
    spanned by the concatenated orthonormal bases; for sum of dimensions
    >= (r-1)n it is evaluated on the orthogonal complements.  Returns 0
    for dependent configurations.
    """
    subspaces = list(subspaces)
    if not subspaces:
        raise ValueError("need at least one subspace")
    n = subspaces[0].n
    if any(s.n != n for s in subspaces):
        raise ValueError("subspaces must share the ambient dimension")
    r = len(subspaces)
    total = sum(s.k for s in subspaces)
    if total <= n:
        bases = [s.basis for s in subspaces if s.k > 0]
    elif total >= (r - 1) * n:
        bases = [complement(s).basis for s in subspaces if s.k < n]
    else:
        raise ValueError("determinant undefined for these dimensions")
    if not bases:
        return 1.0
    return min(float(gram_volumes(np.vstack(bases)[None])[0]), 1.0)


def parallelepiped_volume(vectors) -> float:
    """nabla_k(u_1,...,u_k): k-volume of the parallelepiped of unit vectors.

    Equals the subspace determinant of the spanned lines; evaluated directly
    from the Gram matrix so that dependent inputs yield exactly 0.
    """
    g = np.vstack([np.asarray(v, dtype=float) for v in vectors])
    return min(float(gram_volumes(g[None])[0]), 1.0)


def q_factors(g: np.ndarray) -> np.ndarray:
    """Orthonormal bases of the row spans of an (m, k, n) stack: batched QR
    factors, or for k = 1 the normalized rows (the same lines up to sign)."""
    if g.shape[1] == 1:
        return g / np.linalg.norm(g, axis=2, keepdims=True)
    q, _ = np.linalg.qr(np.swapaxes(g, 1, 2))
    return np.swapaxes(q, 1, 2)


def haar_bases(count: int, n: int, k: int, rng: SeedLike) -> np.ndarray:
    """Stack of `count` Haar-distributed orthonormal (k, n) bases: the
    `q_factors` of k x n standard normal matrices, whose spans are rotation
    invariant, which characterizes the Haar probability measure on G(n,k)."""
    return q_factors(as_generator(rng).standard_normal((count, k, n)))


def haar_sample(n: int, k: int, rng: SeedLike) -> Subspace:
    """Haar-distributed k-dimensional subspace of R^n."""
    if not 0 < k < n:
        raise ValueError(f"need 0 < k < n, got k={k}, n={n}")
    return Subspace(haar_bases(1, n, k, rng)[0])


def random_rotation(n: int, rng: SeedLike) -> np.ndarray:
    """Haar-distributed rotation matrix (determinant +1)."""
    gen = as_generator(rng)
    q, r = np.linalg.qr(gen.standard_normal((n, n)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def rotate_subspace(u: Subspace, rotation: np.ndarray) -> Subspace:
    return Subspace(u.basis @ rotation.T)


def _principal_angles(b1: np.ndarray, b2: np.ndarray) -> np.ndarray:
    """Principal angles of the row spans of two (..., k, n) stacks of
    orthonormal bases, ascending: atan2 of the sines (singular values of b2
    less its projection onto b1, ascending) and the cosines (those of
    b2 b1^T, descending), so that small angles keep their digits, which
    arccos of the cosine loses below about 1e-8."""
    cross = b2 @ np.swapaxes(b1, -1, -2)
    sin = np.linalg.svd(b2 - cross @ b1, compute_uv=False)[..., ::-1]
    return np.arctan2(sin, np.linalg.svd(cross, compute_uv=False))


def principal_angles(u1: Subspace, u2: Subspace) -> np.ndarray:
    """Principal angles between two subspaces of equal dimension."""
    if u1.k != u2.k:
        raise ValueError("subspaces must have equal dimension")
    return _principal_angles(u1.basis, u2.basis)


def grassmann_distance(u1: Subspace, u2: Subspace) -> float:
    """Squared-deviation size of the minimal rotation carrying u1 to u2.

    A rotation acting by the principal angles theta_i in orthogonal planes
    maps u1 onto u2 and has squared deviation from the identity equal to
    4 * sum_i (1 - cos theta_i) = 8 * sum_i sin^2(theta_i / 2), the form
    evaluated; this direct rotation is minimal.
    """
    return float(8.0 * np.sum(np.sin(principal_angles(u1, u2) / 2.0) ** 2))


def grassmann_metric(u1: Subspace, u2: Subspace) -> float:
    """Square root of grassmann_distance; satisfies the triangle inequality.

    grassmann_distance itself is a squared Frobenius deviation and is not a
    metric; its square root is the Frobenius distance of the direct rotation
    from the identity and is used wherever a genuine metric table is needed.
    """
    return float(np.sqrt(grassmann_distance(u1, u2)))


def _touch_cut(reach, volume, n: int):
    """Largest computed closest-pair length that counts as touching: the
    exact solve's rounding of a length, (n + 58) eps sqrt(M / (1 - c^2)) for
    lines (derived in `_line_screen`), read with sqrt(M) = max(reach, 1),
    reach the larger offset norm, and sqrt(1 - c^2) = [L, M] = volume for
    every (k1, k2); at least 1e-12."""
    return np.maximum((n + 58) * 2.0 ** -53 * np.maximum(reach, 1.0) / volume, 1e-12)


def closest_pair(e: Flat, f: Flat):
    """Closest-point pair of two flats, or their intersection flat.

    For dim(E) + dim(F) < n returns the ProximitySegment joining the unique
    closest points; for dim sums >= n returns the intersection Flat of
    dimension k1 + k2 - n.  Pairs that are not in general position (subspace
    determinant <= 1e-10), or that touch (`_touch_cut`), raise DegeneratePairError.
    """
    n = e.n
    if f.n != n:
        raise ValueError("flats must share the ambient dimension")
    det = subspace_determinant([e.direction, f.direction])
    if det <= GENERAL_POSITION_TOL:
        raise DegeneratePairError("degenerate pair")
    if e.k + f.k < n:
        bl, bm = e.direction.basis, f.direction.basis
        if e.k + f.k == 0:
            x_e, x_f = e.offset.copy(), f.offset.copy()
        else:
            rows = [b for b in (bl, -bm) if b.shape[0] > 0]
            g = np.vstack(rows)
            # minimize |(a - b) + G^T w|; then a + w_L . B_L and b + w_M . B_M
            # are the feet and their gap is orthogonal to both directions
            w = np.linalg.solve(g @ g.T, -g @ (e.offset - f.offset))
            x_e = e.offset + (w[: e.k] @ bl if e.k else 0.0)
            x_f = f.offset + (w[e.k:] @ bm if f.k else 0.0)
        gap = x_e - x_f
        dist = float(np.linalg.norm(gap))
        reach = max(np.linalg.norm(e.offset), np.linalg.norm(f.offset))
        if dist <= _touch_cut(reach, det, n):
            raise DegeneratePairError("flats touch; no positive-length perpendicular")
        return ProximitySegment(
            midpoint=(x_e + x_f) / 2.0,
            length=dist,
            direction=canonical_unit(gap),
        )
    return _intersection_flat([e, f])


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
    return Flat.through_point(direction, point)


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


def _in_blocks(solve, count: int) -> tuple[np.ndarray, ...]:
    """solve(block) over consecutive blocks of BLOCK_ROWS of the row indices
    0, ..., count - 1 (one empty block for none), its output arrays concatenated."""
    parts = [solve(np.arange(start, min(start + BLOCK_ROWS, count)))
             for start in range(0, max(count, 1), BLOCK_ROWS)]
    return tuple(np.concatenate(column) for column in zip(*parts))


def _line_screen(u, offs_a, v, offs_b, sq_u, sq_v, delta):
    """Candidate test for line pairs from matrix products per slab of rows.

    u, v are (N, n) directions, sq_u, sq_v their computed u.u.  Returns
    screen(r0, r1, col0), the (r1 - r0, N_b - col0) mask of the pairs to solve
    exactly: those with 1 - c^2 < SCREEN_TAU, c = u_i.v_j, and those with
    dist^2 <= delta^2 + margin.  In R^3 that is r^2 <= (delta^2 + margin)
    (1 - c^2) on the Pluecker product r = u_i.(b_j x v_j) + v_j.(a_i x u_i)
    = (a_i - b_j).(u_i x v_j) = [L_i, L_j] dist: two products a slab.  In R^n,
    n >= 4, a line's offset is orthogonal to its direction, so with p = u_i.b_j,
    q = a_i.v_j and d = a_i - b_j: d.u_i = -p, d.v_j = q and dist^2 = |d|^2 -
    q^2 - (p + c q)^2 / (1 - c^2), where |d|^2 = |a_i|^2 + |b_j|^2 - 2 a_i.b_j:
    four products a slab.
    """
    sq_a = np.einsum("mn,mn->m", offs_a, offs_a)
    sq_b = np.einsum("mn,mn->m", offs_b, offs_b)
    # Round-off of the screen.  eps = 2^-53, M the largest of |a_i|^2, |b_j|^2
    # and delta^2, S = 1 - c^2 as computed (>= SCREEN_TAU here); m-term dot
    # products err by m eps sum |x_k y_k|.  The exact solve's feet lie within
    # 6 sqrt(M / S) of the offsets, so its length is short of dist by < (n + 58)
    # eps sqrt(M / S): it keeps dist^2 <= delta^2 + 2 (n + 58) eps M / sqrt(S).
    n = offs_a.shape[1]
    big = max(sq_a.max(initial=0.0), sq_b.max(initial=0.0), delta * delta)
    if n == 3:
        # eta is the largest |u.u - 1| of these rows (`FlatSample` keeps it within
        # 1e-9; rows may come from elsewhere) + 3 eps for computing u.u.  A moment
        # errs by 3 eps sqrt(M) (a component a_y u_z - a_z u_y by 2 eps (|a_y u_z| +
        # |a_z u_y|)), r by 12 + 6 = 18 eps sqrt(M), r^2 by 37 eps M; c by
        # 3 eps, so S differs from |u_i x v_j|^2 by 2 eta + 8 eps, which delta^2
        # turns into (2 eta + 8 eps) M.  With the solve's term times S <= 1,
        # 124 eps M, and the test's two roundings, 2 eps M: r^2 exceeds
        # delta^2 S by less than (2 eta + 171 eps) M, half of margin SCREEN_TAU.
        eta = max(np.abs(sq - 1.0).max(initial=0.0) for sq in (sq_u, sq_v)) + 3 * 2.0 ** -53
        bound = delta * delta + 2.0 * (2.0 * eta + 171 * 2.0 ** -53) * big / SCREEN_TAU
        cyc = [1, 2, 0], [2, 0, 1]  # a x w by columns, cheaper than np.cross on few rows
        m_a, m_b = (a.take(cyc[0], 1) * w.take(cyc[1], 1) - a.take(cyc[1], 1) * w.take(cyc[0], 1)
                    for a, w in ((offs_a, u), (offs_b, v)))
        rows_a, rows_b = np.hstack([u, m_a]), np.hstack([m_b, v])
    else:
        # |d|^2 as one product: rows (a_i, |a_i|^2, 1) against (-2 b_j, 1, |b_j|^2)
        rows_a = np.hstack([offs_a, sq_a[:, None], np.ones_like(sq_a)[:, None]])
        rows_b = np.hstack([-2.0 * offs_b, np.ones_like(sq_b)[:, None], sq_b[:, None]])
        # c errs by n eps, p and q by n eps sqrt(M), |d|^2 by (6n + 8) eps M and
        # q^2 by (2n + 1) eps M.  As q^2 + (p + c q)^2 / S = |d|^2 - dist^2 <= 4M,
        # |p + c q| <= 2 sqrt(M S), so (p + c q)^2 errs by (12n + 16) eps M, S by
        # (2n + 2) eps and (p + c q)^2 / S by (20n + 28) eps M / S; the two
        # subtractions add 8 eps M: (28n + 45) eps M / S, with the solve's term
        # less than 80 (n + 2) eps M / S to first order; true S >= SCREEN_TAU / 2.
        bound = delta * delta + 160.0 * (n + 2) * 2.0 ** -53 * big / SCREEN_TAU
    # temporaries reused by every slab, the largest of which has BLOCK_ROWS
    # pairs or one row
    work = np.empty((5, max(BLOCK_ROWS, offs_b.shape[0])))

    def screen(r0, r1, col0):
        rows, width = r1 - r0, offs_b.shape[0] - col0
        c, r, p, q, t = work[:, :rows * width].reshape(5, rows, width)
        np.matmul(u[r0:r1], v[col0:].T, out=c)
        np.matmul(rows_a[r0:r1], rows_b[col0:].T, out=r)  # r, or |d|^2 for n >= 4
        if n > 3:
            np.matmul(u[r0:r1], offs_b[col0:].T, out=p)
            np.matmul(offs_a[r0:r1], v[col0:].T, out=q)
            p += np.multiply(c, q, out=t)
            p *= p
            q *= q
            r -= q
        c *= c
        np.subtract(1.0, c, out=c)
        near = c < SCREEN_TAU
        if n > 3:
            p /= np.maximum(c, SCREEN_TAU, out=c)
            r -= p  # dist^2
            near |= r <= bound
        else:  # r^2 <= bound S
            near |= np.multiply(r, r, out=r) <= np.multiply(c, bound, out=c)
        return near

    return screen


def pair_segments(bases_a, offs_a, bases_b, offs_b, single, delta):
    """Batched closest-pair solve: the proximity segments of flat pairs.

    bases_* are (N, k, n) stacks of orthonormal rows and offs_* (N, n)
    offsets of two flat families with k_1 + k_2 < n; single means that both
    are one sample, whose pairs are i < j, and otherwise every (i, j) is a
    pair.  Returns the qualifying pairs in lexicographic order with their
    segments (midpoints, lengths, directions, pairs): the pairs closest_pair
    solves (general position, not touching) with length at most delta.
    Phase 1 walks the pairs in slabs of rows i against all their j, about
    BLOCK_ROWS pairs a slab, so no array of all pairs is built, and keeps
    each slab's candidate (i, j): for lines the superset of the qualifying
    pairs that `_line_screen` passes on (two matrix products a slab in R^3,
    four in higher dimensions), otherwise every pair.  Phase 2 solves the
    candidates of consecutive slabs together, at most BLOCK_ROWS unless one
    slab has more, by a 2x2 closed form for lines, on (n, m) coordinate rows,
    and a stacked Gram solve otherwise.  No pair's result depends on its slab
    or block.
    """
    lines = bases_a.shape[1] == bases_b.shape[1] == 1
    n_a, n_b = offs_a.shape[0], offs_b.shape[0]
    count = n_a * (n_a - 1) // 2 if single else n_a * n_b
    # offset norms, whose larger one per pair is the reach of `_touch_cut`
    # (einsum on these few rows: `row_dots` gives the same bits, in more calls)
    norm_a = np.sqrt(np.einsum("mn,mn->m", offs_a, offs_a))
    norm_b = norm_a if single else np.sqrt(np.einsum("mn,mn->m", offs_b, offs_b))
    if lines:
        u_a, u_b = bases_a[:, 0, :], bases_b[:, 0, :]
        sq_u = np.einsum("mn,mn->m", u_a, u_a)
        sq_v = sq_u if single else np.einsum("mn,mn->m", u_b, u_b)
        # coordinate rows, (n, N): a block's gather is one take per array,
        # and each coordinate of the block one contiguous row
        ut_a, at_a = u_a.T.copy(), offs_a.T.copy()
        ut_b, at_b = (ut_a, at_a) if single else (u_b.T.copy(), offs_b.T.copy())
    screen = (_line_screen(u_a, offs_a, u_b, offs_b, sq_u, sq_v, delta)
              if lines and count >= SCREEN_MIN_PAIRS else None)

    def solve(i, j):
        if lines:
            # the 2x2 normal equations in closed form, on (n, m) coordinate
            # rows, worked in place
            u, v = ut_a.take(i, axis=1), ut_b.take(j, axis=1)
            a, b = at_a.take(i, axis=1), at_b.take(j, axis=1)
            c = row_dots(u, v)
            c2 = c * c
            det = 1.0 - c2
            # general position on the Gram determinant, as closest_pair: it
            # is 0 for equal rows, where 1 - c^2 need not be
            vol = sq_u.take(i) * sq_v.take(j)
            vol -= c2
            np.sqrt(np.maximum(vol, 0.0, out=vol), out=vol)
            ok = vol > GENERAL_POSITION_TOL
            if not ok.all():  # copy only when a pair is out of general position
                u, v, a, b = (x.compress(ok, axis=1) for x in (u, v, a, b))
                c, det, vol, i, j = (x.compress(ok) for x in (c, det, vol, i, j))
            gap = a - b
            # normal equations of min |d + s u - t v| over (s, t), d = a - b
            r1 = -row_dots(u, gap)
            r2 = row_dots(v, gap)
            u *= (r1 + c * r2) / det  # s u
            v *= (c * r1 + r2) / det  # t v
            a += u  # the feet x_e = a + s u and x_f = b + t v
            b += v
            np.subtract(a, b, out=gap)
            mids = a  # (x_e + x_f) / 2
            mids += b
            mids /= 2.0
        else:
            # minimize |(a - b) + G^T w| with G = [B_E; -B_F] stacked per pair
            g = np.concatenate([bases_a[i], -bases_b[j]], axis=1)
            vol = gram_volumes(g)
            ok = vol > GENERAL_POSITION_TOL
            g, vol, i, j = g[ok], vol[ok], i[ok], j[ok]
            a, b = offs_a[i], offs_b[j]
            rhs = -np.einsum("mkn,mn->mk", g, a - b)
            w = np.linalg.solve(g @ np.swapaxes(g, 1, 2), rhs[..., None])[..., 0]
            k1 = bases_a.shape[1]
            x_e = a + np.einsum("mk,mkn->mn", w[:, :k1], g[:, :k1])
            x_f = b - np.einsum("mk,mkn->mn", w[:, k1:], g[:, k1:])
            gap, mids = (x_e - x_f).T, ((x_e + x_f) / 2.0).T  # (n, m) views
        lengths = row_norms(gap.T)
        reach = np.maximum(norm_a.take(i), norm_b.take(j))
        keep = (lengths > _touch_cut(reach, vol, offs_a.shape[1])) & (lengths <= delta)
        kept = np.flatnonzero(keep)
        gap, mids = gap.take(kept, axis=1), mids.take(kept, axis=1)
        lengths, i, j = lengths.take(kept), i.take(kept), j.take(kept)
        gap /= lengths
        return mids.T, lengths, canonical_units(gap.T), i, j  # (m, n) views

    def joined(parts):  # one part as it is, several concatenated column by column
        return parts[0] if len(parts) == 1 else [np.concatenate(c) for c in zip(*parts)]

    # phase 1 slab by slab; phase 2 on a block once the next slab would overfill it
    solved, block, held, r0 = [], [], 0, 0
    while r0 < n_a or not block:  # one slab at least: no rows give empty arrays
        col0 = r0 + 1 if single else 0
        width = n_b - col0
        r1 = min(n_a, r0 + max(1, BLOCK_ROWS // max(width, 1)))
        # when single, j > i: j - col0 >= i - r0, false only in the first r1 - r0 columns
        if screen is None:
            mask = (np.arange(width) >= np.arange(r1 - r0)[:, None] if single
                    else np.ones((r1 - r0, width), dtype=bool))
        else:
            mask = screen(r0, r1, col0)
            if single:
                corner = mask[:, :r1 - r0]
                corner &= np.arange(corner.shape[1]) >= np.arange(r1 - r0)[:, None]
        i, j = np.divmod(np.flatnonzero(mask), max(width, 1))
        if block and held + i.size > BLOCK_ROWS:
            solved.append(solve(*joined(block)))
            block, held = [], 0
        block.append((i + r0, j + col0))
        held += i.size
        r0 = r1
    solved.append(solve(*joined(block)))
    midpoints, lengths, directions, i, j = joined(solved)
    return (np.ascontiguousarray(midpoints), lengths, np.ascontiguousarray(directions),
            np.stack([i, j], axis=1))


def tuple_intersections(bases, offsets, tuples):
    """Batched intersect_flats: the intersection flats of flat tuples.

    bases[p] and offsets[p] are the (N_p, k_p, n) and (N_p, n) stacks that
    position p of a tuple draws from, with k_1 + ... + k_r >= (r-1) n, and
    tuples is an (m, r) index array.  The complement bases of a tuple stack
    into an (n-q) x n matrix C; one batched SVD of C gives the minimum-norm
    solution of C x = C-offsets and the null space of C, the intersection
    direction.  Tuples are solved in blocks of BLOCK_ROWS.  Returns the
    tuples in general position and their flats: (bases (m', q, n), offsets
    (m', n), tuples (m', r)).
    """
    n = offsets[0].shape[1]
    comps = [complement_bases(b) for b in bases]
    levels = [np.einsum("mjn,mn->mj", c, o) for c, o in zip(comps, offsets)]
    # the subspace determinant of the directions: on the directions themselves
    # when their dimensions sum to at most n, as subspace_determinant does
    on_directions = sum(b.shape[1] for b in bases) <= n

    def solve(tuples):
        normal = np.concatenate([c[t] for c, t in zip(comps, tuples.T)], axis=1)
        rhs = np.concatenate([lv[t] for lv, t in zip(levels, tuples.T)], axis=1)
        stack = (np.concatenate([b[t] for b, t in zip(bases, tuples.T)], axis=1)
                 if on_directions else normal)
        ok = gram_volumes(stack) > GENERAL_POSITION_TOL
        normal, rhs, tuples = normal[ok], rhs[ok], tuples[ok]
        u, s, vt = np.linalg.svd(normal)
        p = normal.shape[1]
        coef = np.einsum("mij,mi->mj", u, rhs) / s
        point = np.einsum("mj,mjn->mn", coef, vt[:, :p])
        direction = vt[:, p:]
        # as Flat.through_point: drop any round-off component along the direction
        point -= np.einsum("mq,mqn->mn", np.einsum("mqn,mn->mq", direction, point),
                           direction)
        return direction, point, tuples

    return _in_blocks(lambda rows: solve(tuples[rows]), tuples.shape[0])

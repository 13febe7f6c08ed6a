"""Exact linear algebra on linear and affine subspaces.

Subspaces are stored as stacks of orthonormal row vectors.  Affine flats are
a direction subspace plus an offset in its orthogonal complement.  Operations
are pure and values immutable: `check_orthonormal` is the one test of a
basis or flat stack, run by the container that takes the stack in, once, and
`read_only` (a read-only C-ordered copy) the one rule for an array a
container is given.  The kernels work on (m, k, n) stacks of bases and
return plain arrays; `subspace_views` and `flat_views` hand out views of the
rows of a stack that a container checked or a kernel just made, and check
nothing.  `pair_segments` has two solvers: lines by a 2x2 closed form,
every other pair by one projection reduced to the coordinates of its first
flat (`_projection_solve`), whose Gram-Schmidt volume and projected gap
avoid the normal equations.  The scalar `closest_pair`, for k1 + k2 < n
only, solves the same least-squares problem pair by pair by an SVD
(`np.linalg.lstsq`): it is the independent reference of `pair_segments` and
returns a `ProximitySegment`.
The line solve gathers both lines of every pair of a block with one take
from (2n + 2, N) coordinate rows, one contiguous row per coordinate, and
takes the block's dot products from `row_dots`; a call of one unscreened
slab reads its pairs from one cached table, and the slabs of a single sample
cut their j > i corner with one cached triangle.  A call on lines of R^3
with at most SMALL_LINE_PAIRS pairs, where that solve's fixed cost
dominates, goes pair by pair in Python floats instead, with the same
operations in the same order: the same bits.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import chain, combinations, cycle
from math import comb, isqrt, prod, sqrt
from typing import NamedTuple

import numpy as np

from ._rng import SeedLike, as_generator

ORTHO_TOL = 1e-12
RANK_TOL = 1e-10
GENERAL_POSITION_TOL = 1e-10
# pairs per slab of `pair_segments` and tuples per block of
# `tuple_intersections`: bounds their temporaries (about 1 kB per pair of
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
# calls on lines of R^3 with at most this many pairs skip the vectorized solve,
# about 55 us a call whatever the size, for `_small_line_segments`, its bits
# pair by pair in Python floats, whose cost grows with the pairs it keeps.  In
# a loop of unit-cube F_0 replications the two cross near 50 pairs (141
# against 153-158 us a replication at 36, 165 against 158-169 at 55); one path
# called over and over, near 32 pairs with 2/3 of them kept (58 against 55 us
# at 36) and near 40 with 2/5 kept (50 against 55 at 36, 60 against 56 at 45;
# isotropic lines, delta 1, the same 2-vCPU host)
SMALL_LINE_PAIRS = 36


class DegeneratePairError(ValueError):
    """Raised when a pair of flats is not in general position."""


def read_only(values, dtype=float) -> np.ndarray:
    """values as a read-only C-ordered copy of dtype: every container's
    ownership rule, so that no caller can change what a container checked."""
    values = np.array(values, dtype=dtype, order="C")
    values.setflags(write=False)
    return values


def canonical_units(units: np.ndarray) -> np.ndarray:
    """Copy of a stack of unit vectors, each row signed so that its first
    coordinate of magnitude above 1e-12 is positive."""
    return _sign_rows(np.array(units, dtype=float))


def _sign_rows(units: np.ndarray) -> np.ndarray:
    """`canonical_units` in place on an (m, n) float array."""
    lead = units[:, 0]
    if np.minimum.reduce(np.abs(lead), initial=np.inf) > 1e-12:  # NaN fails too
        sign = np.sign(lead)
    else:
        for col in units.T[1:]:  # past leading coordinates within 1e-12 of 0
            lead = np.where(np.abs(lead) <= 1e-12, col, lead)
        sign = np.where(lead < -1e-12, -1.0, 1.0)
    # x * 1 and x * -1 are exact, signed zeros included
    units *= sign[:, None]
    return units


def row_norms(x: np.ndarray) -> np.ndarray:
    """np.linalg.norm(x, axis=1) of x in C order bit for bit, for any layout
    of x; below 8 columns the squares summed column by column, in numpy's
    order for such short rows, without its row loop."""
    if not 0 < x.shape[1] < 8:
        return np.linalg.norm(np.ascontiguousarray(x), axis=1)
    squares = (x * x).T
    total = squares[0] + squares[1] if x.shape[1] > 1 else squares[0]
    for col in squares[2:]:
        total += col
    return np.sqrt(total, out=total)


def row_dots(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Dot products of the columns of two (n, m) coordinate-row arrays:
    np.einsum("mn,mn->m", x.T, y.T) of C-ordered (m, n) copies bit for bit;
    arrays of shape (n, ...) give the dot products of their broadcast columns.
    Below 8 coordinates numpy's kernel sums the even and the odd coordinates
    apart, in order, and adds the two sums to its zeroed output, 0 + (even +
    odd), which is (0 + even) + odd: -0 comes out +0 either way."""
    n = x.shape[0]
    if not 0 < n < 8:  # on C-ordered (m, n) copies of the broadcast columns
        x, y = np.broadcast_arrays(x, y)
        shape = x.shape[1:]
        x, y = (z.reshape(n, prod(shape)).T.copy() for z in (x, y))
        return np.einsum("mn,mn->m", x, y).reshape(shape)
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


@lru_cache(maxsize=None)
def _identity_rows(k: int, width: int) -> np.ndarray:
    """Read-only np.eye(k, width)[..., None]: the first k rows of the Gram
    matrix of orthonormal rows and an orthogonal offset, in the (k + 1,
    k + 1, m) layout of `check_orthonormal`."""
    eye = np.eye(k, width)[..., None]
    eye.flags.writeable = False
    return eye


def check_orthonormal(bases: np.ndarray, offsets: np.ndarray | None = None,
                      radius: float | None = None) -> None:
    """ValueError unless the rows of a (k, n) basis or an (m, k, n) stack are
    orthonormal within 1e-10 and each offset a, when given, is orthogonal to
    its basis within ORTHO_TOL max(1, |a|), tested before the rows; with a
    window radius given too, every |a| must be at most radius + 1e-9, tested
    first.  One Gram product of the rows [B; a] gives B B^T - I, B a and
    |a|^2; entries of the first two all below ORTHO_TOL pass both of their
    tests at once.  A stack's product is taken on (k + 1, n, m)
    coordinate-major rows, the layout in which einsum's cost grows slowest
    with m."""
    k = bases.shape[-2]
    if bases.ndim == 3:
        rows = np.concatenate([bases.transpose(1, 2, 0)]
                              + ([] if offsets is None else [offsets.T[None]]))
        gram = np.einsum("inm,jnm->ijm", rows, rows)
    else:
        rows = bases if offsets is None else np.vstack([bases, offsets])
        gram = (rows @ rows.T)[..., None]
    # each test is written `not x <= bound`, so NaN fails it too
    if radius is not None and gram.shape[2] and \
            not np.maximum.reduce(gram[k, k]) <= (radius + 1e-9) ** 2:
        raise ValueError("offset norms must not exceed the window radius")
    error = np.abs(gram[:k] - _identity_rows(k, gram.shape[1]))
    if np.maximum.reduce(error, axis=None, initial=0.0) < ORTHO_TOL:
        return
    if offsets is not None:
        scale = np.sqrt(np.maximum(gram[k, k], 1.0))
        if not np.all(error[:, k] < ORTHO_TOL * scale):
            raise ValueError("offset is not orthogonal to the direction subspace")
    if not np.maximum.reduce(error[:, :k], axis=None, initial=0.0) <= 1e-10:
        raise ValueError("basis rows are not orthonormal")


@dataclass(frozen=True)
class Subspace:
    """A k-dimensional linear subspace of R^n with an orthonormal basis.

    basis has shape (k, n); rows are pairwise orthonormal within 1e-10.
    k = 0 (empty basis) denotes the trivial subspace.
    """

    basis: np.ndarray

    def __post_init__(self) -> None:
        basis = np.atleast_2d(read_only(self.basis))
        if basis.size == 0:
            basis = basis.reshape(0, basis.shape[-1] if basis.ndim == 2 else 0)
        object.__setattr__(self, "basis", basis)
        k, n = basis.shape
        if k > n:
            raise ValueError(f"subspace dimension {k} exceeds ambient dimension {n}")
        check_orthonormal(basis)

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

    def same_span(self, other: "Subspace", tol: float = 1e-8) -> bool:
        if self.basis.shape != other.basis.shape:
            return False
        d = (self._projector - other._projector).ravel()
        return sqrt(d @ d) < tol  # np.linalg.norm's Frobenius fast path

    @staticmethod
    def full(n: int) -> "Subspace":
        return Subspace(np.eye(n))

    @staticmethod
    def trivial(n: int) -> "Subspace":
        return Subspace(np.zeros((0, n)))

    @staticmethod
    def span(*vectors: np.ndarray) -> "Subspace":
        return orthonormalize(list(vectors))


def subspace_views(bases) -> tuple[Subspace, ...]:
    """`Subspace` views of the rows of the `read_only` copy of an (m, k, n)
    stack of orthonormal bases.  Nothing is checked: the stack comes from a
    container that checked it when it was made, or from a QR or normalization
    kernel that has just made it."""
    bases = read_only(bases)
    if bases.ndim != 3:
        raise ValueError(f"need an (m, k, n) stack of bases, got shape {bases.shape}")
    views = tuple(map(object.__new__, [Subspace] * len(bases)))
    for view, row in zip(views, bases):
        view.__dict__["basis"] = row  # as __post_init__ sets it, past the frozen __setattr__
    return views


def flat_views(bases, offsets) -> tuple[Flat, ...]:
    """`Flat` views of the rows of an (m, k, n) stack of bases and an (m, n)
    stack of offsets, on `subspace_views`: unchecked, as they are."""
    offsets = read_only(offsets)
    flats = tuple(map(object.__new__, [Flat] * len(offsets)))
    for flat, direction, offset in zip(flats, subspace_views(bases), offsets):
        flat.__dict__.update(direction=direction, offset=offset)
    return flats


@dataclass(frozen=True)
class Flat:
    """An affine flat E = L + x with direction L and offset x in L-perp."""

    direction: Subspace
    offset: np.ndarray

    def __post_init__(self) -> None:
        offset = read_only(self.offset)
        object.__setattr__(self, "offset", offset)
        if offset.shape != (self.direction.n,):
            raise ValueError("offset length must equal the ambient dimension")
        check_orthonormal(self.direction.basis, offset)

    @property
    def n(self) -> int:
        return self.direction.n

    @property
    def k(self) -> int:
        return self.direction.k


class ProximitySegment(NamedTuple):
    """The perpendicular segment realizing the distance of two flats.

    midpoint = (x_E + x_F)/2, length = |x_E - x_F|, direction the
    sign-canonicalized unit vector of x_E - x_F.
    """

    midpoint: np.ndarray
    length: float
    direction: np.ndarray


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
    """Orthonormal complement bases, (m, n-k, n), for a stack of (k, n) bases.

    The trailing n - k columns of a complete Householder QR of each
    transposed basis, B^T = Q R: the first k columns of Q span the rows of B,
    so the rest are orthonormal and orthogonal to them within a small multiple
    of eps |B|, dependent rows included (there they span an (n - k)-subspace
    of the larger complement).
    """
    k = bases.shape[1]
    q, _ = np.linalg.qr(np.swapaxes(bases, 1, 2), mode="complete")
    return np.swapaxes(q[:, :, k:], 1, 2)


def complement(u: Subspace) -> Subspace:
    """Orthogonal complement, of dimension n - k."""
    return Subspace(complement_bases(u.basis[None])[0])


def subset_indices(m: int, r: int) -> np.ndarray:
    """The r-subsets of range(m), lexicographic, as a (C(m, r), r) array."""
    return np.fromiter(chain.from_iterable(combinations(range(m), r)),
                       dtype=np.intp, count=comb(m, r) * r).reshape(comb(m, r), r)


def product_indices(sizes) -> np.ndarray:
    """range(sizes[0]) x range(sizes[1]) x ..., lexicographic, as a (prod(sizes), r) array."""
    return np.indices(sizes).reshape(len(sizes), -1).T.copy()


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
        bases = [complement_bases(s.basis[None])[0] for s in subspaces if s.k < n]
    else:
        raise ValueError("determinant undefined for these dimensions")
    if not bases:
        return 1.0
    return min(float(gram_volumes(np.vstack(bases)[None])[0]), 1.0)


def q_factors(g: np.ndarray) -> np.ndarray:
    """Orthonormal bases of the row spans of an (m, k, n) stack: batched QR
    factors, or for k = 1 the normalized rows (the same lines up to sign),
    divided by np.linalg.norm(g, axis=2, keepdims=True) as that function
    computes it for real g, without its wrapper: the same bits."""
    if g.shape[1] == 1:
        return g / np.sqrt(np.add.reduce(g * g, axis=2, keepdims=True))
    q, _ = np.linalg.qr(np.swapaxes(g, 1, 2))
    return np.swapaxes(q, 1, 2)


def haar_bases(count: int, n: int, k: int, rng: SeedLike) -> np.ndarray:
    """Stack of `count` Haar-distributed orthonormal (k, n) bases: the
    `q_factors` of k x n standard normal matrices, whose spans are rotation
    invariant, which characterizes the Haar probability measure on G(n,k)."""
    return q_factors(as_generator(rng).standard_normal((count, k, n)))


def _principal_angles(b1: np.ndarray, b2: np.ndarray) -> np.ndarray:
    """Principal angles of the row spans of two (..., k, n) stacks of
    orthonormal bases, ascending: atan2 of the sines (singular values of b2
    less its projection onto b1, ascending) and the cosines (those of
    b2 b1^T, descending), so that small angles keep their digits, which
    arccos of the cosine loses below about 1e-8."""
    cross = b2 @ np.swapaxes(b1, -1, -2)
    sin = np.linalg.svd(b2 - cross @ b1, compute_uv=False)[..., ::-1]
    return np.arctan2(sin, np.linalg.svd(cross, compute_uv=False))


def grassmann_distance(u1: Subspace, u2: Subspace) -> float:
    """Squared-deviation size of the minimal rotation carrying u1 to u2.

    A rotation acting by the principal angles theta_i in orthogonal planes
    maps u1 onto u2 and has squared deviation from the identity equal to
    4 * sum_i (1 - cos theta_i) = 8 * sum_i sin^2(theta_i / 2), the form
    evaluated; this direct rotation is minimal.
    """
    if u1.k != u2.k:
        raise ValueError("subspaces must have equal dimension")
    return float(8.0 * np.sum(np.sin(_principal_angles(u1.basis, u2.basis) / 2.0) ** 2))


def _touch_scale(reach, n: int):
    """(n + 58) eps max(reach, 1), the numerator of `_touch_cut`: rounding is
    monotone, so the larger of two flats' values is that of the larger reach."""
    return (n + 58) * 2.0 ** -53 * np.maximum(reach, 1.0)


def _touch_cut(reach, volume, n: int):
    """Largest computed closest-pair length that counts as touching: the
    exact solve's rounding of a length, (n + 58) eps sqrt(M / (1 - c^2)) for
    lines (derived in `_line_screen`), read with sqrt(M) = max(reach, 1),
    reach the larger offset norm, and sqrt(1 - c^2) = [L, M] = volume for
    every (k1, k2); at least 1e-12."""
    return np.maximum(_touch_scale(reach, n) / volume, 1e-12)


def closest_pair(e: Flat, f: Flat) -> ProximitySegment:
    """ProximitySegment joining the unique closest points of two flats with
    dim(E) + dim(F) < n.  Pairs that are not in general position (volume
    [E, F] <= 1e-10), or that touch (`_touch_cut`), raise
    DegeneratePairError.  The independent per-pair reference of
    `pair_segments`: the least-squares problem of the stacked bases, solved
    by `np.linalg.lstsq`, whose midpoint error grows like eps max(|a|, 1) /
    [E, F]^2 (the normal equations' like 1 / [E, F]^3).  Its volume is the
    quantity of `pair_segments`, by
    other arithmetic: for two lines the Gram volume (`subspace_determinant`),
    otherwise prod |r_ii| of a Householder QR of E's basis rows off F, so
    that both read about eps on pairs that share a direction."""
    n = e.n
    if f.n != n or e.k + f.k >= n:
        raise ValueError("closest_pair needs flats of one R^n with dim(E) + dim(F) < n")
    bl, bm = e.direction.basis, f.direction.basis
    if e.k == f.k == 1:
        det = subspace_determinant([e.direction, f.direction])
    else:
        r = np.linalg.qr((bl - (bl @ bm.T) @ bm).T, mode="r")
        det = float(np.prod(np.abs(np.diagonal(r))))
    if det <= GENERAL_POSITION_TOL:
        raise DegeneratePairError("degenerate pair")
    if e.k + f.k == 0:
        x_e, x_f = e.offset.copy(), f.offset.copy()
    else:
        rows = [b for b in (bl, -bm) if b.shape[0] > 0]
        g = np.vstack(rows)
        # minimize |(a - b) + G^T w| by an SVD of G^T, not by the normal
        # equations, whose error grows like 1 / [E, F]^3; then a + w_L . B_L
        # and b + w_M . B_M are the feet and their gap is orthogonal to both
        w = np.linalg.lstsq(g.T, f.offset - e.offset, rcond=None)[0]
        x_e = e.offset + (w[: e.k] @ bl if e.k else 0.0)
        x_f = f.offset + (w[e.k:] @ bm if f.k else 0.0)
    gap = x_e - x_f
    dist = float(np.linalg.norm(gap))
    reach = max(np.linalg.norm(e.offset), np.linalg.norm(f.offset))
    if dist <= _touch_cut(reach, det, n):
        raise DegeneratePairError("flats touch; no positive-length perpendicular")
    return ProximitySegment((x_e + x_f) / 2.0, dist, canonical_unit(gap))


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
        # eta is the largest |u.u - 1| of these rows (1e-10 in a `FlatSample`, by
        # `check_orthonormal`; rows may come from elsewhere) + 3 eps for u.u.  A
        # moment errs by 3 eps sqrt(M) (a component a_y u_z - a_z u_y by 2 eps
        # (|a_y u_z| + |a_z u_y|)), r by 12 + 6 = 18 eps sqrt(M), r^2 by 37 eps M;
        # c by 3 eps, so S differs from |u_i x v_j|^2 by 2 eta + 8 eps, which delta^2
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


@lru_cache(maxsize=64)
def _pair_table(n_a: int, n_b: int, single: bool) -> np.ndarray:
    """Read-only (2, count) table of the pairs (i over j) of a one-slab
    `pair_segments` call, lexicographic: i < j < n_a if single, else every
    (i, j).  At most 64 tables of at most BLOCK_ROWS pairs each."""
    table = (np.array(np.triu_indices(n_a, 1)) if single
             else np.indices((n_a, n_b), dtype=np.intp).reshape(2, -1))
    table.flags.writeable = False
    return table


@lru_cache(maxsize=4)
def _upper_triangle(size: int) -> np.ndarray:
    """Read-only (size, size) mask of j >= i: cut to the first columns of a
    slab of a single-sample call, its pairs with j > i.  Such a slab has at
    most one row more than columns and at most BLOCK_ROWS pairs, so at most
    isqrt(BLOCK_ROWS) + 1 rows."""
    tri = np.arange(size) >= np.arange(size)[:, None]
    tri.flags.writeable = False
    return tri


def _line_rows(bases: np.ndarray, offs: np.ndarray) -> np.ndarray:
    """(2n + 2, N) coordinate rows of N lines of R^n, one contiguous row per
    coordinate: the directions u over the offsets a, then u.u and the
    `_touch_scale` of |a|, so that one take gathers a block of pairs."""
    n, u = offs.shape[1], bases[:, 0, :]
    rows = np.empty((2 * n + 2, offs.shape[0]))
    rows[:n], rows[n:2 * n] = u.T, offs.T
    rows[2 * n] = np.einsum("mn,mn->m", u, u)
    rows[2 * n + 1] = _touch_scale(np.sqrt(np.einsum("mn,mn->m", offs, offs)), n)
    return rows


def _line_floats(bases, offs) -> list[tuple[float, ...]]:
    """(u0, u1, u2, a0, a1, a2, u.u, `_touch_scale` of |a|) of each line of
    R^3 in Python floats, u.u and a.a summed as `_line_rows`' einsum sums
    them, ((x0 x0 + 0.0) + x2 x2) + x1 x1."""
    out = []
    for (u0, u1, u2), (a0, a1, a2) in zip(bases.reshape(-1, 3).tolist(), offs.tolist()):
        reach = sqrt(a0 * a0 + 0.0 + a2 * a2 + a1 * a1)
        out.append((u0, u1, u2, a0, a1, a2, u0 * u0 + 0.0 + u2 * u2 + u1 * u1,
                    (3 + 58) * 2.0 ** -53 * max(reach, 1.0)))
    return out


def _small_line_segments(bases_a, offs_a, bases_b, offs_b, single, delta):
    """`pair_segments` of lines in R^3 pair by pair in Python floats, bit for
    bit: each value takes the vectorized line solve's operations in its
    order.  Dot products are `row_dots`', ((x0 y0 + 0.0) + x2 y2) + x1 y1,
    lengths `row_norms`', (g0^2 + g1^2) + g2^2, and signs `_sign_rows`' row by
    row.  A pair with det = 1 - c^2 = 0 is dropped, as the vectorized solve's
    general-position mask drops it there.  The midpoints, lengths and
    directions are views of one (m, 7) array, which the container copies."""
    rows_a = _line_floats(bases_a, offs_a)
    rows_b = rows_a if single else _line_floats(bases_b, offs_b)
    values, pairs = [], []  # (midpoint, length, direction) and (i, j) per segment
    for i, (u0, u1, u2, a0, a1, a2, su, ta) in enumerate(rows_a):
        for j in range(i + 1, len(rows_b)) if single else range(len(rows_b)):
            v0, v1, v2, b0, b1, b2, sv, tb = rows_b[j]
            c = u0 * v0 + 0.0 + u2 * v2 + u1 * v1
            c2 = c * c
            vol = su * sv - c2
            vol = sqrt(vol) if vol > 0.0 else 0.0  # sqrt(max(vol, 0)), NaN dropped as there
            if not vol > GENERAL_POSITION_TOL:
                continue
            det = 1.0 - c2
            if not det:  # as the vectorized solve's c2 != 1.0
                continue
            d0, d1, d2 = a0 - b0, a1 - b1, a2 - b2
            p = u0 * d0 + 0.0 + u2 * d2 + u1 * d1
            q = v0 * d0 + 0.0 + v2 * d2 + v1 * d1
            s, t = (c * q - p) / det, (c * p - q) / det
            e0, e1, e2 = a0 + u0 * s, a1 + u1 * s, a2 + u2 * s
            f0, f1, f2 = b0 - v0 * t, b1 - v1 * t, b2 - v2 * t
            g0, g1, g2 = e0 - f0, e1 - f1, e2 - f2
            length = sqrt(g0 * g0 + g1 * g1 + g2 * g2)
            # length > max(max(ta, tb) / vol, 1e-12), division being monotone
            if not (length > ta / vol and length > tb / vol and length > 1e-12
                    and length <= delta):
                continue
            g0, g1, g2 = g0 / length, g1 / length, g2 / length
            lead = g0 if not abs(g0) <= 1e-12 else g1 if not abs(g1) <= 1e-12 else g2
            if lead < -1e-12:
                g0, g1, g2 = g0 * -1.0, g1 * -1.0, g2 * -1.0
            values += ((e0 + f0) / 2.0, (e1 + f1) / 2.0, (e2 + f2) / 2.0, length, g0, g1, g2)
            pairs += (i, j)
    block = np.array(values, dtype=float).reshape(-1, 7)
    return (block[:, :3], block[:, 3], block[:, 4:],
            np.array(pairs, dtype=np.intp).reshape(-1, 2))


def _flat_rows(bases: np.ndarray, offs: np.ndarray) -> np.ndarray:
    """((k + 1) n + 1, N) coordinate rows of N k-flats of R^n, one contiguous
    row per coordinate: the basis rows over the offsets, then the
    `_touch_scale` of |a|, so that one take gathers a side of a block."""
    count, k, n = bases.shape
    rows = np.empty(((k + 1) * n + 1, count))
    rows[:k * n] = bases.reshape(count, k * n).T
    rows[k * n:-1] = offs.T
    rows[-1] = _touch_scale(np.sqrt(np.einsum("mn,mn->m", offs, offs)), n)
    return rows


def _projection_solve(ge, gf, n: int):
    """Closest points of m flat pairs (E, F) of R^n from the `_flat_rows`
    columns ge of E and gf of F, reduced to E's k coordinates: a
    least-squares problem solved by orthogonalization, not by its normal
    equations.

    With C = B_E B_F^T and the residual rows W = B_E - C B_F of E's basis
    off F, I - C C^T = W W^T.  Modified Gram-Schmidt gives W^T = Q R, so
    that [E, F] = prod r_ii without the cancellation of a determinant.  For
    d = a - b, the gap is the projection d - B_F^T (B_F d) - Q (Q^T d) of d
    onto (E + F)^perp, and s = -R^-1 Q^T d places the foot a + s B_E on E;
    the foot on F, b + t B_F with t = B_F d + C^T s, is that foot less the
    gap, so the midpoint is a + s B_E - gap / 2.  Returns the gap and
    midpoint rows, (n, m) each, the volumes and the mask of volumes above
    GENERAL_POSITION_TOL.  No division warns: a row with r_ii = 0 stays
    unscaled, and a pair outside the mask keeps s unscaled and reads
    volume 1."""
    k, k2, m = ge.shape[0] // n - 1, gf.shape[0] // n - 1, ge.shape[1]  # rows (k + 1) n + 1
    if m == 1:  # einsum sums a lone column's coordinates in another order: solve it twice
        return tuple(x[..., :1] for x in _projection_solve(ge.repeat(2, 1), gf.repeat(2, 1), n))
    be, a = ge[:k * n].reshape(k, n, m), ge[k * n:-1]
    bf, b = gf[:k2 * n].reshape(k2, n, m), gf[k2 * n:-1]
    d = a - b
    c = np.einsum("inm,jnm->ijm", be, bf)
    fd = np.einsum("jnm,nm->jm", bf, d)
    q = be - np.einsum("ijm,jnm->inm", c, bf)  # W, orthonormalized in place into Q
    r = np.empty((k, k, m))
    for i in range(k):
        for j in range(i):
            r[j, i] = np.einsum("nm,nm->m", q[j], q[i])
            q[i] -= r[j, i] * q[j]
        np.sqrt(np.einsum("nm,nm->m", q[i], q[i]), out=r[i, i])
        np.divide(q[i], r[i, i], out=q[i], where=r[i, i] > 0.0)
    vol = r.reshape(k * k, m)[::k + 1].prod(axis=0)
    ok = vol > GENERAL_POSITION_TOL
    z = np.einsum("inm,nm->im", q, d)  # Q^T d
    s = z.copy()  # -s, by back substitution in R (-s) = z
    for i in reversed(range(k)):
        for j in range(i + 1, k):
            s[i] -= r[i, j] * s[j]
        np.divide(s[i], r[i, i], out=s[i], where=ok)
    gap = d - np.einsum("jm,jnm->nm", fd, bf)
    gap -= np.einsum("im,inm->nm", z, q)
    mids = a - np.einsum("im,inm->nm", s, be)  # the foot on E, less half the gap
    mids -= 0.5 * gap
    return gap, mids, np.where(ok, vol, 1.0), ok


def pair_segments(bases_a, offs_a, bases_b, offs_b, single, delta):
    """Batched closest-pair solve: the proximity segments of flat pairs.

    bases_* are (N, k, n) stacks of orthonormal rows and offs_* (N, n)
    offsets of two flat families with k_1 + k_2 < n; single means that both
    are one sample, whose pairs are i < j, and otherwise every (i, j) is a
    pair.  Returns the qualifying pairs in lexicographic order with their
    segments (midpoints, lengths, directions, pairs): the pairs closest_pair
    solves (general position, not touching) with length at most delta.
    Phase 1 walks the pairs in slabs of rows i against all their j, about
    BLOCK_ROWS pairs a slab, and keeps each slab's candidates as a (2, m)
    table of (i, j): for lines those that `_line_screen` passes on (two
    matrix products a slab in R^3, four in higher dimensions), otherwise
    every pair, which a call of one slab reads from `_pair_table`; a single
    sample's slab drops its pairs with j <= i through one cached
    `_upper_triangle`.  Phase 2 solves the candidates of consecutive slabs
    together, at most BLOCK_ROWS unless one slab has more: lines by a 2x2
    closed form on the coordinate rows of `_line_rows`, both lines of a
    pair gathered by one take; other flats by `_projection_solve` on the
    coordinate rows of `_flat_rows`, one take per side, the flat from a as
    E.  Each block keeps a pair in general position whose length exceeds
    the larger `_touch_scale` of its flats over its volume (`_touch_cut`)
    and is at most delta, compacts its outputs only when it drops one, and
    returns the transposes of its
    coordinate rows, views of its work arrays or of a cached table: the
    container that holds them makes the one C-ordered copy.  No pair's
    result depends on its slab or block.  Lines of R^3 with at most
    SMALL_LINE_PAIRS pairs skip both phases for `_small_line_segments`.
    """
    n = offs_a.shape[1]
    lines = bases_a.shape[1] == bases_b.shape[1] == 1
    n_a, n_b = offs_a.shape[0], offs_b.shape[0]
    count = n_a * (n_a - 1) // 2 if single else n_a * n_b
    if lines and n == 3 and count <= SMALL_LINE_PAIRS:
        return _small_line_segments(bases_a, offs_a, bases_b, offs_b, single, delta)
    if lines:  # the rows of a, then those of b: a pair (i, j) is column (i, n_a + j)
        rows = (_line_rows(bases_a, offs_a) if single else
                _line_rows(np.concatenate([bases_a, bases_b]), np.concatenate([offs_a, offs_b])))
        shift, sq = None if single else np.array([[0], [n_a]]), rows[2 * n]
    else:
        rows_a = _flat_rows(bases_a, offs_a)
        rows_b = rows_a if single else _flat_rows(bases_b, offs_b)
    screen = (_line_screen(bases_a[:, 0, :], offs_a, bases_b[:, 0, :], offs_b,
                           sq[:n_a], sq if single else sq[n_a:], delta)
              if lines and count >= SCREEN_MIN_PAIRS else None)

    def solve(pairs):
        if lines:
            # the 2x2 normal equations in closed form, worked in place on the
            # (2n + 2, 2, m) rows of each pair's line from a over its line from b
            g = rows.take(pairs if single else pairs + shift, axis=1)
            c = row_dots(g[:n, 0], g[:n, 1])
            c2 = c * c
            # general position on the Gram determinant, as closest_pair: it
            # is 0 for equal rows, where 1 - c^2 need not be
            vol = np.multiply(g[2 * n, 0], g[2 * n, 1], out=g[2 * n, 0])
            vol -= c2
            np.sqrt(np.maximum(vol, 0.0, out=vol), out=vol)
            ok = vol > GENERAL_POSITION_TOL
            ok &= c2 != 1.0  # and det = 1 - c^2 != 0, which that volume need not imply
            if np.count_nonzero(ok) < ok.size:  # copy only when a pair is out of general position
                g, pairs = g.compress(ok, axis=2), pairs.compress(ok, axis=1)
                c, c2 = c.compress(ok), c2.compress(ok)
            units, vol, scale = g[:n], g[2 * n, 0], g[2 * n + 1, 0]
            u, v, a, b = g[:n, 0], g[:n, 1], g[n:2 * n, 0], g[n:2 * n, 1]
            det = 1.0 - c2
            gap = a - b
            # min |d + s u - t v| over (s, t), d = a - b: with p = u.d and
            # q = v.d, s = (c q - p) / det and t = (q - c p) / det, and
            # w = c (p, q) reversed less (p, q) is (s, -t) det
            pq = row_dots(units, gap[:, None])
            w = np.subtract((c * pq)[::-1], pq)
            w /= det
            units *= w
            a += u  # the feet x_e = a + s u
            b -= v  # and x_f = b - (-t) v
            np.subtract(a, b, out=gap)
            mids = a  # (x_e + x_f) / 2
            mids += b
            mids /= 2.0
            np.maximum(scale, g[2 * n + 1, 1], out=scale)
        else:
            ge, gf = rows_a.take(pairs[0], axis=1), rows_b.take(pairs[1], axis=1)
            gap, mids, vol, ok = _projection_solve(ge, gf, n)
            scale = np.maximum(ge[-1], gf[-1])
        lengths = row_norms(gap.T)
        scale /= vol
        keep = lengths > np.maximum(scale, 1e-12, out=scale)  # _touch_cut
        keep &= lengths <= delta
        if not lines:
            keep &= ok
        if np.count_nonzero(keep) < keep.size:
            mids, lengths, gap, pairs = (x.compress(keep, -1) for x in (mids, lengths, gap, pairs))
        return mids.T, lengths, _sign_rows((gap / lengths).T), pairs.T

    # phase 1 slab by slab; phase 2 on a block once the next slab would overfill it
    solved, block, held, r0 = [], [], 0, 0
    while r0 < n_a or not block:  # one slab at least: no rows give empty arrays
        col0 = min(r0 + 1, n_b) if single else 0
        width = n_b - col0
        r1 = min(n_a, r0 + max(1, BLOCK_ROWS // max(width, 1)))
        if screen is None and r1 - r0 == n_a and count <= BLOCK_ROWS:
            pairs = _pair_table(n_a, n_b, single)
        else:
            mask = (np.ones((r1 - r0, width), dtype=bool) if screen is None
                    else screen(r0, r1, col0))
            if single:  # j > i: j - col0 >= i - r0, false only in the first r1 - r0 columns
                corner = mask[:, :r1 - r0]
                corner &= _upper_triangle(isqrt(BLOCK_ROWS) + 1)[:r1 - r0, :corner.shape[1]]
            flat = mask.ravel().nonzero()[0]
            pairs = np.empty((2, flat.size), dtype=np.intp)
            np.divmod(flat, max(width, 1), out=(pairs[0], pairs[1]))
            pairs += np.array([[r0], [col0]])
        if block and held + pairs.shape[1] > BLOCK_ROWS:
            solved.append(solve(block[0] if len(block) == 1 else np.concatenate(block, axis=1)))
            block, held = [], 0
        block.append(pairs)
        held += pairs.shape[1]
        r0 = r1
    solved.append(solve(block[0] if len(block) == 1 else np.concatenate(block, axis=1)))
    return solved[0] if len(solved) == 1 else tuple(np.concatenate(c) for c in zip(*solved))


def tuple_intersections(bases, offsets, tuples):
    """The intersection flats of flat tuples.

    bases[p] and offsets[p] are the (N_p, k_p, n) and (N_p, n) stacks that
    position p of a tuple draws from, with k_1 + ... + k_r >= (r-1) n, and
    tuples is an (m, r) index array; a lone stack serves every position.
    Each stack given takes one `complement_bases` and one product with its
    offsets, the levels.  The complement bases of a tuple stack into an
    (n-q) x n matrix C; its Gram volume, the subspace determinant, must
    exceed GENERAL_POSITION_TOL.  One batched SVD of C gives the minimum-norm
    solution of C x = levels and the null space of C, the intersection
    direction.  Tuples are solved in blocks of BLOCK_ROWS.  Returns the
    tuples in general position and their flats: (bases (m', q, n), offsets
    (m', n), tuples (m', r)).
    """
    comps = [complement_bases(b) for b in bases]
    levels = [np.einsum("mjn,mn->mj", c, o) for c, o in zip(comps, offsets)]

    def solve(tuples):
        normal = np.concatenate([c[t] for c, t in zip(cycle(comps), tuples.T)], axis=1)
        rhs = np.concatenate([lv[t] for lv, t in zip(cycle(levels), tuples.T)], axis=1)
        ok = gram_volumes(normal) > GENERAL_POSITION_TOL
        normal, rhs, tuples = normal[ok], rhs[ok], tuples[ok]
        u, s, vt = np.linalg.svd(normal)
        p = normal.shape[1]
        coef = np.einsum("mij,mi->mj", u, rhs) / s
        point = np.einsum("mj,mjn->mn", coef, vt[:, :p])
        direction = vt[:, p:]
        # an offset lies in the direction's complement: drop any round-off component along it
        point -= np.einsum("mq,mqn->mn", np.einsum("mqn,mn->mq", direction, point),
                           direction)
        return direction, point, tuples

    return _in_blocks(lambda rows: solve(tuples[rows]), tuples.shape[0])

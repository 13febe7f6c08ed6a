"""Zonotopes of discrete even generating measures and their area measures.

A zonotope is stored by half-length generators: the segment of a +-pair of
pair mass q runs from -(q/2)u to +(q/2)u, so the support function of the
zonotope equals the cosine-moment integral of half the generating measure.
`mu_Q_r`, `area_measure` and `closed_form.hyperplane_intersection` read the
even measure's stacks directly through `_hyperplane_atoms`: one stacked Gram
volume of the r-subsets, one complete-QR `complement_bases` of those kept, and
one `_merge`, whose Gram screen sends only near pairs to the exact Frobenius
test; each call then builds and checks one `GrassmannMeasure`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from math import comb

import numpy as np

from .flat_geometry import BLOCK_ROWS, complement_bases, gram_volumes, read_only, subset_indices
from .measures import GrassmannMeasure, SphereMeasure, positive_weights

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


def _check_order(name: str, value, low: int, high: int, n: int) -> None:
    """ValueError naming the order unless it is an integer (not a bool) in
    [low, high]."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) \
            or not low <= value <= high:
        raise ValueError(f"need an integer {name} with {low} <= {name} <= {high}, "
                         f"got {name}={value!r}, n={n}")


def _subsets(units: np.ndarray, lengths: np.ndarray, r: int):
    """The r-subsets of the (m, n) generator directions as an (m, r) index
    array in lexicographic order; the subsets' nabla_r, from one stacked Gram
    volume; and their terms prod_i lengths_i * nabla_r of V_r, lengths the
    full segment lengths."""
    idx = subset_indices(len(units), r)
    vols = np.minimum(gram_volumes(units[idx]), 1.0)
    return idx, vols, np.prod(lengths[idx], axis=1) * vols


def intrinsic_volume(z: Zonotope, m: int) -> float:
    """m-th intrinsic volume of the zonotope.

    V_m(Z) = sum over m-subsets I of generators of the product of the full
    segment lengths (2 w_i) times the parallelepiped volume of the subset's
    directions.  V_0 = 1; subsets spanning less than m dimensions drop out.
    """
    _check_order("m", m, 0, z.n, z.n)
    if m == 0:
        return 1.0
    return float(_subsets(z.units, 2.0 * z.half_lengths, m)[2].sum())


def _merge(projectors: np.ndarray, tol: float):
    """Indices of the first projector of each class and each projector's
    label: in input order, a projector joins the first representative within
    tol in Frobenius norm, else starts a class.

    A block of rows, about BLOCK_ROWS pairs, meets every earlier projector in
    one product of the flattened projectors, which screens the pairs by
    |P_i - P_j|^2 = |P_i|^2 + |P_j|^2 - 2 <P_i, P_j>.  Only the pairs within
    tol^2 plus the screen's round-off go to the exact test, the norm of
    P_i - P_j, so the classes are those of the exact test on every pair.
    """
    count = len(projectors)
    flat = projectors.reshape(count, math.prod(projectors.shape[1:]))
    sq = np.einsum("ij,ij->i", flat, flat)
    # Round-off of the screen.  eps = 2^-53, N = n^2 entries a projector, M the
    # largest computed |P|^2.  An N-term dot product errs by N eps sum |x_k y_k|
    # (to first order), so |P_i|^2 + |P_j|^2 - 2 <P_i, P_j> errs, with its sum
    # and difference, by (N + 2) eps (|P_i| + |P_j|)^2 <= 4 (N + 2) eps M.  A
    # pair the exact test keeps has |P_i - P_j|^2 < tol^2 (1 + (N + 5) eps).
    # The margin 4 (N + 3) eps (M + tol^2) covers both and the screen's own
    # rounding of tol^2 and of the bound.
    big = np.fmax.reduce(sq, initial=0.0) + tol * tol  # fmax: a NaN row merges nothing
    bound = tol * tol + 4 * (flat.shape[1] + 3) * 2.0 ** -53 * big
    is_rep, first = np.ones(count, dtype=bool), np.arange(count)
    step = max(1, BLOCK_ROWS // max(count, 1))
    for r0 in range(0, count, step):
        r1 = min(count, r0 + step)
        d2 = sq[r0:r1, None] + sq[:r1] - 2.0 * (flat[r0:r1] @ flat[:r1].T)
        # earlier projectors only
        rows, cols = np.nonzero((d2 <= bound) & np.tri(r1 - r0, r1, r0 - 1, dtype=bool))
        if not rows.size:
            continue
        rows += r0
        near = np.linalg.norm(projectors[rows] - projectors[cols], axis=(1, 2)) < tol
        # pairs by row, then column: a row joins its first near representative
        for i, j in zip(rows[near].tolist(), cols[near].tolist()):
            if is_rep[i] and is_rep[j]:
                is_rep[i], first[i] = False, j
    if is_rep.all():  # every projector its own class
        return list(range(count)), first
    return np.flatnonzero(is_rep).tolist(), (np.cumsum(is_rep) - 1)[first]


def merge_grassmann_atoms(atoms):
    """Merge weighted subspace atoms whose projectors coincide within MERGE_TOL."""
    atoms = list(atoms)
    reps, labels = _merge(np.array([sub.projector() for sub, _ in atoms]), MERGE_TOL)
    sums = np.bincount(labels, [w for _, w in atoms], len(reps))
    return [(atoms[i][0], w) for i, w in zip(reps, sums.tolist())]


def _hyperplane_atoms(q: SphereMeasure, r: int) -> tuple[np.ndarray, np.ndarray]:
    """The atoms of mu_Q_r(q, r), not yet checked: the merged complement
    bases (m, n - r, n) of the r-subsets of q's atoms with nabla_r above
    DROP_TOL, and their summed weights r! prod_i q_i nabla_r."""
    _check_order("r", r, 2, q.n - 1, q.n)
    if not q.is_atomic:
        raise ValueError("zonotope construction requires an atomic even measure")
    idx, vols, terms = _subsets(q.units, q.weights, r)
    keep = vols > DROP_TOL
    comps = complement_bases(q.units[idx[keep]])
    reps, labels = _merge(np.swapaxes(comps, 1, 2) @ comps, MERGE_TOL)
    return comps[reps], np.bincount(labels, math.factorial(r) * terms[keep], len(reps))


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
    bases, weights = _hyperplane_atoms(q, r)
    return GrassmannMeasure(q.n, q.n - r, bases, weights)


def area_measure(q: SphereMeasure, r: int) -> SphereMeasure:
    """r-th area measure of the zonotope of q, as a subsphere mixture.

    Lifting the hyperplane-intersection measure to the sphere and dividing by
    r! * binom(n-1, r) yields S_r(Z_q, .): the mixture has one component per
    contributing direction set, supported on the unit sphere of the
    intersection subspace.
    """
    bases, weights = _hyperplane_atoms(q, r)
    scale = float(math.factorial(r)) * comb(q.n - 1, r)
    return SphereMeasure(q.n, components=(
        GrassmannMeasure(q.n, q.n - r, bases, weights / scale),))

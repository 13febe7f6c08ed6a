"""Bounded-Lipschitz and Prohorov distances between finite discrete measures
on metric supports, and the empirical stability harness relating measure
distances to distances of derived area/intersection/proximity data.

Both distances are exact at any support size.  The bounded-Lipschitz
distance is a linear program solved by scipy's HiGHS solver.  The Prohorov
distance uses Strassen's theorem in its finite-support form: for a fixed
enlargement the largest violation is a max-flow deficiency, which is
constant between consecutive distinct distances, so a bisection over those
breakpoints finds the exact value.

Sphere supports use the quotient geodesic metric arccos|<u,v>| on +-pairs;
Grassmannian supports use the direct-rotation metric (the square root of
`grassmann_distance`, which itself is a squared deviation and not a metric).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import coo_array

from .closed_form import hyperplane_intersection, proximity_intensity
from .flat_geometry import Subspace, grassmann_metric
from .measures import GrassmannMeasure, SphereMeasure, line_measure_from_sphere, lower_bound_check
from .zonoid_engine import _merge, area_measure

# The Prohorov distance is exact to round-off; this is the margin below a
# returned value at which callers can check that it is also the least one.
PROHOROV_TOL = 1e-6
# Entries of the (rows, m, m) temporary of one block of the triangle check.
_TRIANGLE_BLOCK = 1 << 20


@dataclass(frozen=True)
class MetricSample:
    """Common finite support with a precomputed distance table.

    The table must be finite, symmetric with zero diagonal and satisfy the
    triangle inequality within 1e-9 (validated on construction).
    """

    dist: np.ndarray

    def __post_init__(self) -> None:
        dist = np.array(self.dist, dtype=float)  # a copy: frozen below
        m = dist.shape[0]
        if dist.shape != (m, m):
            raise ValueError("distance table must be square")
        if not np.all(np.isfinite(dist)):
            raise ValueError("distance table must be finite")
        if np.max(np.abs(dist - dist.T), initial=0.0) > 1e-12:
            raise ValueError("distance table must be symmetric")
        if np.max(np.abs(np.diag(dist)), initial=0.0) > 1e-12:
            raise ValueError("distance table must have zero diagonal")
        if np.any(dist < 0):
            raise ValueError("distances must be nonnegative")
        # rows in blocks, so the temporary stays near _TRIANGLE_BLOCK entries
        block = max(1, _TRIANGLE_BLOCK // max(m * m, 1))
        for start in range(0, m, block):
            rows = dist[start:start + block]
            via = np.min(rows[:, :, None] + dist[None, :, :], axis=1)
            if np.max(rows - via, initial=0.0) > 1e-9:
                raise ValueError("distance table violates the triangle inequality")
        dist.flags.writeable = False
        object.__setattr__(self, "dist", dist)

    @property
    def size(self) -> int:
        return self.dist.shape[0]

    @staticmethod
    def from_sphere_pairs(units: Sequence[np.ndarray]) -> "MetricSample":
        """Quotient geodesic metric min(angle(u, v), angle(u, -v)) on
        antipodal pairs, as 2 atan2(min(|u - v|, |u + v|), max(...)), which
        stays accurate for nearby units where arccos|<u, v>| reads 0."""
        u = np.vstack(list(units))
        minus = np.linalg.norm(u[:, None, :] - u[None, :, :], axis=2)
        plus = np.linalg.norm(u[:, None, :] + u[None, :, :], axis=2)
        return MetricSample(2.0 * np.arctan2(np.minimum(minus, plus), np.maximum(minus, plus)))

    @staticmethod
    def from_subspaces(subspaces: Sequence[Subspace]) -> "MetricSample":
        """Direct-rotation metric table on a list of equal-dimension subspaces."""
        subs = list(subspaces)
        m = len(subs)
        dist = np.zeros((m, m))
        for i in range(m):
            for j in range(i + 1, m):
                dist[i, j] = dist[j, i] = grassmann_metric(subs[i], subs[j])
        return MetricSample(dist)


def _weights(sample: MetricSample, mu, nu) -> tuple[np.ndarray, np.ndarray]:
    """Two weight vectors on the support: finite and nonnegative."""
    mu = np.asarray(mu, dtype=float)
    nu = np.asarray(nu, dtype=float)
    m = sample.size
    if mu.shape != (m,) or nu.shape != (m,):
        raise ValueError("weight vectors must match the support size")
    if not (np.all(np.isfinite(mu)) and np.all(np.isfinite(nu))):
        raise ValueError("weights must be finite")
    if np.any(mu < 0) or np.any(nu < 0):
        raise ValueError("weights must be nonnegative")
    return mu, nu


def _highs_max(c: np.ndarray, a_ub, b_ub: np.ndarray, bounds) -> float:
    """max c.x over {A x <= b, x within bounds} by scipy's HiGHS solver."""
    res = linprog(-c, A_ub=a_ub, b_ub=b_ub, bounds=bounds, method="highs")
    if res.status != 0:
        raise RuntimeError(f"HiGHS failed: {res.message}")
    return -float(res.fun)


def bl_distance(sample: MetricSample, mu: np.ndarray, nu: np.ndarray) -> float:
    """Bounded-Lipschitz distance of two weight vectors on a common support.

    Maximizes sum f_i (mu_i - nu_i) over functions with sup-norm plus
    Lipschitz-norm at most 1, as a linear program in f_i in [-1, 1] and
    a, b >= 0: |f_i| <= a, f_i - f_j <= b rho_ij for i != j, a + b <= 1.
    """
    mu, nu = _weights(sample, mu, nu)
    tau = mu - nu
    if not np.any(tau):
        return 0.0
    m = sample.size
    a, b = m, m + 1  # columns of the sup-norm and Lipschitz bounds
    i, j = np.nonzero(~np.eye(m, dtype=bool))
    sup = np.arange(2 * m)  # rows +-f_i - a <= 0
    lip = 2 * m + np.arange(i.size)  # rows f_i - f_j - b rho_ij <= 0
    cap = 2 * m + i.size  # row a + b <= 1
    a_ub = coo_array((
        np.concatenate([np.repeat([1.0, -1.0], m), np.full(2 * m, -1.0),
                        np.ones(i.size), np.full(i.size, -1.0), -sample.dist[i, j],
                        [1.0, 1.0]]),
        (np.concatenate([sup, sup, lip, lip, lip, [cap, cap]]),
         np.concatenate([np.tile(np.arange(m), 2), np.full(2 * m, a), i, j,
                         np.full(i.size, b), [a, b]]))),
        shape=(cap + 1, m + 2))
    b_ub = np.zeros(cap + 1)
    b_ub[cap] = 1.0
    c = np.concatenate([tau, [0.0, 0.0]])
    value = _highs_max(c, a_ub, b_ub, [(-1.0, 1.0)] * m + [(0.0, 1.0)] * 2)
    return max(value, 0.0)


def _max_flow(adjacent: np.ndarray, source_caps: np.ndarray,
              sink_caps: np.ndarray) -> float:
    """Max flow from a source through the bipartite graph `adjacent` to a
    sink, with capacity source_caps[i] into left node i, sink_caps[j] out
    of right node j and none on the edges i -> j."""
    left, right = np.nonzero(adjacent)
    edges = left.size
    if edges == 0:
        return 0.0
    if edges == adjacent.size:
        return min(float(source_caps.sum()), float(sink_caps.sum()))
    columns = np.arange(edges)
    a_ub = coo_array((np.ones(2 * edges),
                      (np.concatenate([left, adjacent.shape[0] + right]),
                       np.concatenate([columns, columns]))),
                     shape=(sum(adjacent.shape), edges))
    return _highs_max(np.ones(edges), a_ub,
                      np.concatenate([source_caps, sink_caps]), (0.0, None))


def _greedy_flow(adjacent: np.ndarray, source_caps: np.ndarray,
                 sink_caps: np.ndarray) -> float:
    """Value of a feasible flow in the network of `_max_flow`, so a lower
    bound on the max flow: each left node in turn fills the remaining
    capacity of its neighbours in index order."""
    room = sink_caps.copy()
    for i, cap in enumerate(source_caps):
        nbrs = np.flatnonzero(adjacent[i])
        free = room[nbrs]
        room[nbrs] = free - np.clip(cap - (np.cumsum(free) - free), 0.0, free)
    return float(sink_caps.sum() - room.sum())


def prohorov_distance(sample: MetricSample, mu: np.ndarray, nu: np.ndarray) -> float:
    """Prohorov distance: the least eps with mu(A) <= nu(A^eps) + eps and
    nu(A) <= mu(A^eps) + eps for every A, where A^eps = {x : d(x, A) < eps}.

    For a fixed eps the largest violation over both conditions is the
    deficiency max(|mu|, |nu|) - F, where F is the max flow from supp(mu)
    to supp(nu) along the pairs closer than eps (Strassen; the table is
    symmetric, so one flow serves both directions).  With the distinct
    distances 0 = t_0 < t_1 < ..., the deficiency D_k on (t_k, t_{k+1}]
    uses the pairs d <= t_k and never rises with k, so the distance is
    max(t_k, D_k) at the first k with D_k <= t_{k+1}, found by bisection.
    When that is t_k itself, the infimum is not attained under the strict
    enlargement, and the next float above t_k is returned.
    """
    mu, nu = _weights(sample, mu, nu)
    if np.array_equal(mu, nu):
        return 0.0
    left, right = np.flatnonzero(mu), np.flatnonzero(nu)
    dist = sample.dist[np.ix_(left, right)]
    mu, nu = mu[left], nu[right]
    total = max(float(mu.sum()), float(nu.sum()))
    t = np.unique(np.concatenate([[0.0], dist.ravel()]))
    deficiency: dict[int, float] = {}

    def deficiency_at(k: int) -> float:
        if k not in deficiency:
            deficiency[k] = total - _max_flow(dist <= t[k], mu, nu)
        return deficiency[k]

    def at_most(k: int, bound: float) -> bool:
        """D_k <= bound; a greedy flow often shows it without an LP solve."""
        return (total - _greedy_flow(dist <= t[k], mu, nu) <= bound
                or deficiency_at(k) <= bound)

    # D_k <= total, so every k with t_{k+1} >= total satisfies the test
    lo, hi = 0, int(np.searchsorted(t, total)) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if at_most(mid, t[mid + 1]):
            hi = mid
        else:
            lo = mid + 1
    if not at_most(lo, t[lo]):
        return deficiency_at(lo)
    return float(np.nextafter(t[lo], np.inf)) if t[lo] > 0 else 0.0


def _common_support(bases: np.ndarray, weights, split: int, tol: float):
    """Merge the stacked (m, k, n) atom bases of two measures, the first
    `split` rows the first measure's, once on their projectors: the indices
    of the support's atoms (first seen first) and both weight vectors."""
    reps, labels = _merge(np.swapaxes(bases, 1, 2) @ bases, tol)
    weights = np.asarray(weights, dtype=float)
    return reps, [np.bincount(labels[part], weights[part], len(reps))
                  for part in (slice(split), slice(split, None))]


def sphere_distances(mu: SphereMeasure, nu: SphereMeasure) -> tuple[float, float]:
    """(bounded-Lipschitz, Prohorov) distances of two atomic even measures.

    Atoms u and v are one support point when |uu^T - vv^T| < sqrt(2) 1e-12,
    that is sin of their angle below 1e-12."""
    if not (mu.is_atomic and nu.is_atomic) or mu.n != nu.n:
        raise ValueError("metric distances require atomic measures on one sphere")
    atoms = mu.pair_atoms + nu.pair_atoms
    units = np.array([u for u, _ in atoms]).reshape(-1, 1, mu.n)
    reps, (w_mu, w_nu) = _common_support(units, [w for _, w in atoms],
                                         len(mu.pair_atoms), math.sqrt(2.0) * 1e-12)
    sample = MetricSample.from_sphere_pairs(units[reps, 0])
    return bl_distance(sample, w_mu, w_nu), prohorov_distance(sample, w_mu, w_nu)


def grassmann_distances(mu: GrassmannMeasure, nu: GrassmannMeasure) -> tuple[float, float]:
    """(bounded-Lipschitz, Prohorov) distances of two atomic Grassmann
    measures under the direct-rotation metric; atoms whose projectors lie
    within 1e-10 are one support point."""
    if mu.is_isotropic or nu.is_isotropic or (mu.n, mu.k) != (nu.n, nu.k):
        raise ValueError("metric distances require atomic measures on one Grassmannian")
    atoms = mu.atoms + nu.atoms
    reps, (w_mu, w_nu) = _common_support(
        np.array([sub.basis for sub, _ in atoms]).reshape(-1, mu.k, mu.n),
        [w for _, w in atoms], len(mu.atoms), 1e-10)
    sample = MetricSample.from_subspaces([atoms[i][0] for i in reps])
    return bl_distance(sample, w_mu, w_nu), prohorov_distance(sample, w_mu, w_nu)


def stability_exponent(case: str, n: int, order: int) -> float:
    """Bounded-Lipschitz exponent 2 c of the stability inequality."""
    if case == "line-proximity":
        return 2.0 / (2.0 * (n + 1) * (n + 4))
    return 2.0 / (2.0 ** order * (n + 1) * (n + 4))


def _derived_measure(case: str, mu: SphereMeasure, order: int) -> GrassmannMeasure:
    """Grassmann component representation of the derived data per case."""
    n = mu.n
    if case == "hyperplane-intersection":
        return hyperplane_intersection(n, 1.0, mu, order)
    if case not in ("area-measure", "line-proximity"):
        raise ValueError(f"unknown stability case {case!r}")
    r = order if case == "area-measure" else 2
    atoms = area_measure(mu, r).subspheres
    derived = GrassmannMeasure.discrete(atoms) if atoms else GrassmannMeasure.zero(n, n - r)
    if case == "area-measure" or not atoms:
        return derived
    # intensity-weighted directional measure of the proximity process,
    # proportional to the second-order area data of the zonotope (all its
    # components have dimension n - 2)
    q_lines = line_measure_from_sphere(mu)
    pi = proximity_intensity(n, 1, q_lines.total_mass, q_lines.normalized(), 1.0)
    return derived.normalized().scaled(pi)


def stability_harness(case: str, base: SphereMeasure,
                      family: Sequence[tuple[float, SphereMeasure]],
                      rho: float, upper: float, order: int = 2) -> dict:
    """Empirical stability report for a contracting family of even measures.

    For each (t, nu_t): the left side is the distance of the generating
    measures on the sphere; the right side is the distance of the derived
    data (area-measure components, intersection measure, or
    intensity-weighted proximity direction measure) on the Grassmannian
    under the direct-rotation metric.  The inequality constants are
    existential, so the report carries ratios and exponent estimates, not
    verdicts; callers assert boundedness and co-vanishing.

    All measures must lie in the class with cosine-moment lower bound rho
    and total mass at most upper.
    """
    for label, measure in [("base", base)] + [(f"t={t}", m) for t, m in family]:
        if measure.total_mass > upper + 1e-12:
            raise ValueError(f"{label}: total mass exceeds the upper bound")
        if not lower_bound_check(measure, rho):
            raise ValueError(f"{label}: cosine-moment lower bound violated")
    exponent = stability_exponent(case, base.n, order)
    derived_base = _derived_measure(case, base, order)
    entries = []
    for t, nu in sorted(family, key=lambda pair: -pair[0]):
        lhs_bl, lhs_p = sphere_distances(base, nu)
        rhs_bl, rhs_p = grassmann_distances(derived_base,
                                            _derived_measure(case, nu, order))
        entry = {
            "t": t,
            "d_BL_lhs": lhs_bl,
            "d_BL_rhs": rhs_bl,
            "d_P_lhs": lhs_p,
            "d_P_rhs": rhs_p,
            "ratio": lhs_bl / rhs_bl ** exponent if rhs_bl > 0 else math.inf,
            "exponent_estimate": (math.log(lhs_bl) / math.log(rhs_bl)
                                  if 0 < rhs_bl < 1 and lhs_bl > 0 else math.nan),
        }
        entries.append(entry)
    return {
        "case": case,
        "order": order,
        "exponent": exponent,
        "entries": entries,
        "max_ratio": max((e["ratio"] for e in entries), default=0.0),
        "final": entries[-1] if entries else None,
    }

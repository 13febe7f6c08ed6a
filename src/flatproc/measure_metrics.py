"""Bounded-Lipschitz and Prohorov distances between finite discrete measures
on metric supports, and the empirical stability harness relating measure
distances to distances of derived area/intersection/proximity data.

Both distances are exact at any support size.  The bounded-Lipschitz
distance is a linear program solved by scipy's HiGHS solver through `milp`,
in variables scaled to the support's diameter, so that supports far below
the solver's tolerances keep their value.  The Prohorov distance uses
Strassen's theorem in its finite-support form: for a fixed enlargement the
largest violation is a max-flow deficiency, which is constant between
consecutive distinct distances, so a bisection over those breakpoints finds
the exact value.

Sphere supports use the quotient geodesic metric arccos|<u,v>| on +-pairs;
Grassmannian supports use the direct-rotation metric (the square root of
`grassmann_distance`, which itself is a squared deviation and not a metric),
from principal angles that keep their digits below 1e-8.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._rng import SeedLike, as_generator
from .closed_form import hyperplane_intersection, proximity_intensity
from .flat_geometry import _principal_angles, read_only
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
        dist = read_only(self.dist)
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
        object.__setattr__(self, "dist", dist)

    @property
    def size(self) -> int:
        return self.dist.shape[0]

    @staticmethod
    def from_sphere_pairs(units: np.ndarray) -> "MetricSample":
        """Quotient geodesic metric min(angle(u, v), angle(u, -v)) on the
        antipodal pairs of an (m, n) stack of units, as
        2 atan2(min(|u - v|, |u + v|), max(...)), which stays accurate for
        nearby units where arccos|<u, v>| reads 0."""
        u = np.asarray(units, dtype=float)
        minus = np.linalg.norm(u[:, None, :] - u[None, :, :], axis=2)
        plus = np.linalg.norm(u[:, None, :] + u[None, :, :], axis=2)
        return MetricSample(2.0 * np.arctan2(np.minimum(minus, plus), np.maximum(minus, plus)))

    @staticmethod
    def from_subspaces(bases: np.ndarray) -> "MetricSample":
        """Direct-rotation metric table on an (m, k, n) stack of orthonormal
        bases, from one stacked principal-angle computation over all pairs:
        the square root of `grassmann_distance`, 2 sqrt(2 sum_i sin^2(theta_i / 2))."""
        theta = _principal_angles(bases[:, None], bases[None, :])
        dist = np.triu(np.sqrt(8.0 * np.sum(np.sin(theta / 2.0) ** 2, axis=-1)), 1)
        return MetricSample(dist + dist.T)


def _weights(sample: MetricSample, mu, nu) -> tuple[np.ndarray, np.ndarray]:
    """Two weight vectors on the support: finite and nonnegative."""
    mu, nu = np.asarray(mu, dtype=float), np.asarray(nu, dtype=float)
    if mu.shape != (sample.size,) or nu.shape != (sample.size,):
        raise ValueError("weight vectors must match the support size")
    if not (np.all(np.isfinite(mu)) and np.all(np.isfinite(nu))):
        raise ValueError("weights must be finite")
    if np.any(mu < 0) or np.any(nu < 0):
        raise ValueError("weights must be nonnegative")
    return mu, nu


def bl_distance(sample: MetricSample, mu: np.ndarray, nu: np.ndarray) -> float:
    """Bounded-Lipschitz distance of two weight vectors on a common support.

    Maximizes sum f_i (mu_i - nu_i) over functions with sup-norm plus
    Lipschitz-norm at most 1, as a linear program in f_i in [-1, 1] and
    a, b >= 0: |f_i| <= a, f_i - f_j <= b rho_ij for i != j, a + b <= 1,
    solved by scipy's HiGHS solver through `milp` in f = c + D h, h_0 = 0,
    D = min(1, diameter): the shape h is of order 1 at any support size,
    while c, a and b keep their scale.  The optimum is never -0.0.
    """
    from scipy.optimize import Bounds, LinearConstraint, milp
    mu, nu = _weights(sample, mu, nu)
    tau = mu - nu
    if not np.any(tau):
        return 0.0
    m = sample.size
    scale = min(1.0, float(sample.dist.max())) or 1.0  # D; 1 for one point
    eye, col = np.eye(m), np.ones((m, 1))
    i, j = np.nonzero(eye == 0)
    # columns h, c, a, b; rows +-(D h_i + c) - a <= 0, h_i - h_j - b rho_ij / D <= 0, a + b <= 1
    a_ub = np.vstack([np.hstack([scale * eye, col, -col, 0 * col]),
                      np.hstack([-scale * eye, -col, -col, 0 * col]),
                      np.hstack([eye[i] - eye[j], np.zeros((i.size, 2)),
                                 -sample.dist[i, j, None] / scale]),
                      np.eye(1, m + 3, m + 1) + np.eye(1, m + 3, m + 2)])
    b_ub = np.r_[np.zeros(len(a_ub) - 1), 1.0]
    free = np.full(m - 1, np.inf)  # h_0 = 0
    res = milp(-np.r_[tau, tau.sum() / scale, 0.0, 0.0],
               bounds=Bounds(np.r_[0.0, -free, -1.0, 0.0, 0.0], np.r_[0.0, free, 1.0, 1.0, 1.0]),
               constraints=LinearConstraint(a_ub, -np.inf, b_ub))
    if res.status != 0:
        raise RuntimeError(f"HiGHS failed: {res.message}")
    value = -scale * float(res.fun)
    return value if value > 0 else 0.0


def _greedy_plan(adjacent: np.ndarray, source_caps: np.ndarray,
                 sink_caps: np.ndarray) -> np.ndarray:
    """Edge flows (p, q) of a feasible flow in the network of `_max_flow`:
    each left node in turn fills the remaining capacity of its neighbours
    in index order."""
    flow, room = np.zeros(adjacent.shape), sink_caps.copy()
    for i, cap in enumerate(source_caps):
        nbrs = np.flatnonzero(adjacent[i])
        free = room[nbrs]
        flow[i, nbrs] = np.clip(cap - (np.cumsum(free) - free), 0.0, free)
        room[nbrs] = free - flow[i, nbrs]
    return flow


def _max_flow(adjacent: np.ndarray, source_caps: np.ndarray, sink_caps: np.ndarray) -> float:
    """Max flow from a source through the bipartite graph `adjacent` to a
    sink, with capacity source_caps[i] into left node i, sink_caps[j] out
    of right node j and none on the edges i -> j: the greedy flow augmented
    along shortest residual paths (Edmonds-Karp), each by a bottleneck that
    leaves exactly 0, until none is left.  The value is the capacity of the
    cut the last search leaves, a sum of inputs exact to round-off."""
    flow = _greedy_plan(adjacent, source_caps, sink_caps)
    room_in, room_out = source_caps - flow.sum(axis=1), sink_caps - flow.sum(axis=0)
    while True:
        # breadth-first search: via[j] is the left node before right node j,
        # back[i] the right node before left node i (-1: the source)
        left, right = room_in > 0, np.zeros(len(room_out), dtype=bool)
        via, back = np.zeros(len(room_out), dtype=np.intp), np.full(len(room_in), -1)
        layer, ends = left.copy(), []
        while layer.any() and not len(ends):
            step = adjacent & layer[:, None]
            new = step.any(axis=0) & ~right
            via[new], right = step[:, new].argmax(axis=0), right | new
            ends = np.flatnonzero(new & (room_out > 0))
            undo = (flow > 0) & new  # flow that left nodes may take back from new
            layer = undo.any(axis=1) & ~left
            back[layer], left = undo[layer].argmax(axis=1), left | layer
        if not len(ends):
            return float(source_caps[~left].sum() + sink_caps[right].sum())
        path, taken = [(via[ends[0]], ends[0])], []  # edges gaining flow, losing flow
        while back[path[-1][0]] >= 0:
            taken.append((path[-1][0], back[path[-1][0]]))
            path.append((via[taken[-1][1]], taken[-1][1]))
        gain, lose = (tuple(np.array(e, dtype=np.intp).reshape(-1, 2).T) for e in (path, taken))
        b = min(room_in[path[-1][0]], room_out[ends[0]], flow[lose].min(initial=np.inf))
        room_in[path[-1][0]] -= b
        room_out[ends[0]] -= b
        flow[gain] += b
        flow[lose] -= b


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
    enlargement, and the next float above t_k is returned: 5e-324 when the
    weights differ only between points at distance 0.
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

    # D_k <= total, so every k with t_{k+1} >= total satisfies the test
    lo, hi = 0, int(np.searchsorted(t, total)) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if deficiency_at(mid) <= t[mid + 1]:
            hi = mid
        else:
            lo = mid + 1
    if deficiency_at(lo) > t[lo]:
        return deficiency_at(lo)
    return float(np.nextafter(t[lo], np.inf))


def _common_support(bases: np.ndarray, weights, split: int, tol: float):
    """Merge the stacked (m, k, n) atom bases of two measures, the first
    `split` rows the first measure's, once on their projectors: the indices
    of the support's atoms (first seen first) and both weight vectors."""
    reps, labels = _merge(np.swapaxes(bases, 1, 2) @ bases, tol)
    return reps, [np.bincount(labels[part], weights[part], len(reps))
                  for part in (slice(split), slice(split, None))]


def sphere_distances(mu: SphereMeasure, nu: SphereMeasure) -> tuple[float, float]:
    """(bounded-Lipschitz, Prohorov) distances of two atomic even measures.

    Atoms u and v are one support point when |uu^T - vv^T| < sqrt(2) 1e-12,
    that is sin of their angle below 1e-12."""
    if not (mu.is_atomic and nu.is_atomic) or mu.n != nu.n:
        raise ValueError("metric distances require atomic measures on one sphere")
    units = np.concatenate([mu.units, nu.units])[:, None]
    reps, (w_mu, w_nu) = _common_support(units, np.concatenate([mu.weights, nu.weights]),
                                         len(mu.units), math.sqrt(2.0) * 1e-12)
    sample = MetricSample.from_sphere_pairs(units[reps, 0])
    return bl_distance(sample, w_mu, w_nu), prohorov_distance(sample, w_mu, w_nu)


def grassmann_distances(mu: GrassmannMeasure, nu: GrassmannMeasure) -> tuple[float, float]:
    """(bounded-Lipschitz, Prohorov) distances of two atomic Grassmann
    measures under the direct-rotation metric; atoms whose projectors lie
    within 1e-10 are one support point."""
    if mu.is_isotropic or nu.is_isotropic or (mu.n, mu.k) != (nu.n, nu.k):
        raise ValueError("metric distances require atomic measures on one Grassmannian")
    bases = np.concatenate([mu.bases, nu.bases])
    reps, (w_mu, w_nu) = _common_support(bases, np.concatenate([mu.weights, nu.weights]),
                                         len(mu.bases), 1e-10)
    sample = MetricSample.from_subspaces(bases[reps])
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
    derived, = area_measure(mu, order if case == "area-measure" else 2).components
    if case == "area-measure" or not derived.weights.size:
        return derived
    # intensity-weighted directional measure of the proximity process,
    # proportional to the second-order area data of the zonotope (all its
    # components have dimension n - 2)
    q_lines = line_measure_from_sphere(mu)
    pi = proximity_intensity(n, 1, q_lines.total_mass, q_lines.normalized(), 1.0)
    return derived.normalized().scaled(pi)


def contracting_family(n: int, t_values: Sequence[float], rng: SeedLike
                       ) -> tuple[SphereMeasure, list[tuple[float, SphereMeasure]]]:
    """The base measure of `flatproc stability` and its contracting family.

    The base puts weight 1 / (n + 1) on each of the n axes and on one unit
    drawn from rng; at each t, atom i is turned toward np.roll(u, 1) by
    t (i + 1) / (n + 1) and renormalized, so the family closes on the base
    as t falls.
    """
    gen = as_generator(rng)
    units = list(np.eye(n))
    extra = gen.standard_normal(n)
    units.append(extra / np.linalg.norm(extra))
    weight = 1.0 / len(units)
    family = []
    for t in t_values:
        moved = []
        for i, u in enumerate(units):
            axis = np.roll(u, 1)
            v = u + t * (i + 1) / len(units) * (axis - (axis @ u) * u)
            moved.append(v / np.linalg.norm(v))
        family.append((t, SphereMeasure.atoms(n, [(v, weight) for v in moved])))
    return SphereMeasure.atoms(n, [(u, weight) for u in units]), family


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
        if (lhs_bl == 0 < lhs_p) or (rhs_bl == 0 < rhs_p):
            raise ValueError(f"t={t}: a bounded-Lipschitz distance reads 0 for distinct "
                             "measures, below the linear program's resolution")
        entries.append({
            "t": t, "d_BL_lhs": lhs_bl, "d_BL_rhs": rhs_bl, "d_P_lhs": lhs_p, "d_P_rhs": rhs_p,
            "ratio": lhs_bl / rhs_bl ** exponent if rhs_bl > 0 else math.inf,
            "exponent_estimate": (math.log(lhs_bl) / math.log(rhs_bl)
                                  if 0 < rhs_bl < 1 and lhs_bl > 0 else math.nan)})
    return {"case": case, "order": order, "exponent": exponent, "entries": entries,
            "max_ratio": max((e["ratio"] for e in entries), default=0.0),
            "final": entries[-1] if entries else None}

"""Pass/fail gates and the benchmark-side oracles.

Gates use the thresholds of the repository's acceptance suite unchanged:
three-standard-error z-scores and 1e-10 identities.  Every gate records
its value, so two runs at one seed can be compared value for value.  The
oracles recompute an output by an independent method and run outside the
timed region.
"""
from __future__ import annotations

import math
import traceback

import numpy as np

Z_GATE = 3.0
IDENTITY_TOL = 1e-10
BL_ORACLE_TOL = 1e-9


class Gates:
    """Ordered record of (name, passed, value) for one verdict."""

    def __init__(self) -> None:
        self.results: list[tuple[str, bool, object]] = []

    def check(self, name: str, passed: bool, value=None) -> bool:
        self.results.append((name, bool(passed), value))
        return bool(passed)

    def z(self, name: str, mean: float, se: float, target: float,
          target_se: float = 0.0) -> bool:
        """|mean - target| within Z_GATE combined standard errors."""
        scale = math.hypot(se, target_se)
        if scale > 0:
            z = (mean - target) / scale
        else:
            z = 0.0 if mean == target else math.inf
        return self.check(name, abs(z) <= Z_GATE, {"mean": mean, "target": target, "z": z})

    def within(self, name: str, value: float, target: float, tol: float) -> bool:
        return self.check(name, abs(value - target) <= tol, {"value": value, "target": target})

    def guarded(self, name: str, step) -> None:
        """Run one step of a check list; an exception fails one gate and the
        check list goes on with the next step."""
        try:
            step(self)
        except Exception:  # a raising step is a failed gate, not a crashed run
            self.check(f"{name}.raised", False, traceback.format_exc())

    @property
    def attempted(self) -> int:
        return len(self.results)

    @property
    def failed(self) -> list[str]:
        return [name for name, passed, _ in self.results if not passed]

    def values(self) -> list:
        return [(name, passed, value) for name, passed, value in self.results]


def bl_distance_highs(dist: np.ndarray, mu: np.ndarray, nu: np.ndarray) -> float:
    """Bounded-Lipschitz distance by scipy's HiGHS solver.

    Maximizes sum f_i (mu_i - nu_i) over f with |f_i| <= a,
    |f_i - f_j| <= b d_ij and a + b <= 1: the same program the library
    solves with its own simplex.
    """
    from scipy.optimize import linprog

    m = dist.shape[0]
    tau = np.asarray(mu, dtype=float) - np.asarray(nu, dtype=float)
    nv = m + 2                       # f_0..f_{m-1}, a, b
    rows = []
    eye = np.eye(m)
    for i in range(m):
        for sign in (1.0, -1.0):
            r = np.zeros(nv)
            r[i], r[m] = sign, -1.0
            rows.append(r)
    iu, ju = np.triu_indices(m, k=1)
    pair = np.zeros((iu.size, nv))
    pair[:, :m] = eye[iu] - eye[ju]
    pair[:, m + 1] = -dist[iu, ju]
    neg = pair.copy()
    neg[:, :m] *= -1.0
    cap = np.zeros(nv)
    cap[m], cap[m + 1] = 1.0, 1.0
    a_ub = np.vstack([np.array(rows), pair, neg, cap])
    b_ub = np.zeros(a_ub.shape[0])
    b_ub[-1] = 1.0
    c = np.concatenate([-tau, [0.0, 0.0]])
    bounds = [(-1.0, 1.0)] * m + [(0.0, 1.0), (0.0, 1.0)]
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=bounds, method="highs")
    if res.status != 0:
        raise RuntimeError(f"HiGHS failed: {res.message}")
    return max(-float(res.fun), 0.0)


def prohorov_feasible(eps: float, dist: np.ndarray, mu: np.ndarray, nu: np.ndarray) -> bool:
    """mu(A) <= nu(A^eps) + eps for every subset A of supp(mu), and the same
    with mu and nu swapped; A^eps = {x : d(x, A) < eps}.  Subsets are
    enumerated in blocks of 2^16 bit masks."""
    for w_from, w_to in ((mu, nu), (nu, mu)):
        support = np.flatnonzero(w_from > 0)
        s = support.size
        reach_of = (dist[support] < eps).astype(float)
        weights = w_from[support]
        for start in range(0, 1 << s, 1 << 16):
            masks = np.arange(start, min(start + (1 << 16), 1 << s), dtype=np.int64)
            bits = ((masks[:, None] >> np.arange(s)) & 1).astype(float)
            reach = (bits @ reach_of) > 0
            if np.any(bits @ weights > reach @ w_to + eps + 1e-12):
                return False
    return True


def prohorov_oracle(gates: Gates, name: str, dist, mu, nu, value: float, bl: float,
                    tol: float) -> None:
    """The returned distance is feasible, the value tol below it is not
    (bisection to tol), and it lies in Dudley's bracket
    rho^2 / 4 <= beta <= 2 rho against the bounded-Lipschitz distance beta."""
    gates.check(f"{name}.feasible", prohorov_feasible(value, dist, mu, nu), value)
    if value > 2 * tol:
        gates.check(f"{name}.minimal", not prohorov_feasible(value - tol, dist, mu, nu), value)
    gates.check(f"{name}.dudley_bracket",
                value * value / 4.0 <= bl + 1e-9 and bl <= 2.0 * value + 1e-9,
                {"prohorov": value, "bl": bl})


def anchored_determinants(anchor_basis: np.ndarray, bases: np.ndarray) -> np.ndarray:
    """[E0, L] for a stack of direction bases: the volume spanned by the
    anchor's and the direction's orthonormal rows together."""
    stacked = np.concatenate(
        [np.broadcast_to(anchor_basis, (bases.shape[0],) + anchor_basis.shape), bases], axis=1)
    return np.abs(np.linalg.det(stacked))

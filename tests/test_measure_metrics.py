import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from flatproc import measure_metrics
from flatproc.flat_geometry import Subspace, haar_sample
from flatproc.measure_metrics import (MetricSample, bl_distance, grassmann_distances,
                                      prohorov_distance, sphere_distances,
                                      stability_harness)
from flatproc.measures import SphereMeasure


def random_metric_sample(m, rng, scale=1.0):
    pts = rng.standard_normal((m, 3))
    dist = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2) * scale
    return MetricSample(dist)


def two_point_sample(rho):
    return MetricSample(np.array([[0.0, rho], [rho, 0.0]]))


def test_metric_sample_validation():
    with pytest.raises(ValueError, match="symmetric"):
        MetricSample(np.array([[0.0, 1.0], [2.0, 0.0]]))
    with pytest.raises(ValueError, match="triangle"):
        MetricSample(np.array([[0.0, 1.0, 1.0],
                               [1.0, 0.0, 5.0],
                               [1.0, 5.0, 0.0]]))
    with pytest.raises(ValueError, match="diagonal"):
        MetricSample(np.array([[0.5]]))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_metric_sample_rejects_non_finite_table(bad):
    with pytest.raises(ValueError, match="finite"):
        MetricSample(np.array([[0.0, bad], [bad, 0.0]]))


def test_triangle_check_in_blocks_finds_a_late_violation(monkeypatch):
    # a tiny block forces one row per block; the bad entry sits in the last rows
    monkeypatch.setattr(measure_metrics, "_TRIANGLE_BLOCK", 8)
    rng = np.random.default_rng(68)
    pts = rng.standard_normal((12, 3))
    dist = np.linalg.norm(pts[:, None] - pts[None, :], axis=2)
    assert MetricSample(dist).size == 12
    dist[10, 11] = dist[11, 10] = dist[10, 0] + dist[0, 11] + 1e-6
    with pytest.raises(ValueError, match="triangle"):
        MetricSample(dist)


@pytest.mark.parametrize("metric", [bl_distance, prohorov_distance])
@pytest.mark.parametrize("bad,message", [(math.nan, "finite"), (math.inf, "finite"),
                                         (-0.25, "nonnegative")])
def test_distances_reject_bad_weights(metric, bad, message):
    sample = two_point_sample(0.5)
    good = np.array([0.5, 0.5])
    for mu, nu in ((np.array([bad, 0.5]), good), (good, np.array([0.5, bad]))):
        with pytest.raises(ValueError, match=message):
            metric(sample, mu, nu)


def test_bl_distance_zero_for_equal_measures():
    sample = two_point_sample(1.0)
    assert bl_distance(sample, np.array([0.3, 0.7]), np.array([0.3, 0.7])) == 0.0


@settings(max_examples=25, deadline=None)
@given(st.floats(min_value=0.05, max_value=3.0))
def test_bl_distance_two_point_formula(rho):
    sample = two_point_sample(rho)
    value = bl_distance(sample, np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    assert value == pytest.approx(2.0 * rho / (2.0 + rho), abs=1e-9)


def test_bl_distance_lower_bound_by_constant_function():
    rng = np.random.default_rng(62)
    for _ in range(15):
        sample = random_metric_sample(5, rng)
        mu, nu = rng.random(5), rng.random(5)
        assert bl_distance(sample, mu, nu) >= abs(mu.sum() - nu.sum()) - 1e-9


def test_prohorov_two_point_cap():
    for rho in (0.4, 0.9, 1.7):
        sample = two_point_sample(rho)
        value = prohorov_distance(sample, np.array([1.0, 0.0]),
                                  np.array([0.0, 1.0]))
        assert value == pytest.approx(min(rho, 1.0), abs=2e-6)


def brute_force_feasible(dist, mu, nu, eps, slack=1e-15):
    """mu(A) <= nu(A^eps) + eps and the converse for every subset A, with
    the strict enlargement A^eps = {x : d(x, A) < eps}, by plain enumeration."""
    idx = range(len(mu))
    for w_from, w_to in ((mu, nu), (nu, mu)):
        for size in range(1, len(mu) + 1):
            for subset in combinations(idx, size):
                mass = sum(w_from[i] for i in subset)
                enlarged = [j for j in idx if min(dist[i, j] for i in subset) < eps]
                if mass > sum(w_to[j] for j in enlarged) + eps + slack:
                    return False
    return True


def test_prohorov_brute_force_small_support():
    # independent brute force: scan all subsets around the returned value
    rng = np.random.default_rng(63)
    sample = random_metric_sample(4, rng)
    mu, nu = rng.random(4), rng.random(4)
    value = prohorov_distance(sample, mu, nu)
    assert brute_force_feasible(sample.dist, mu, nu, value + 1e-5)
    assert not brute_force_feasible(sample.dist, mu, nu, value - 1e-5)


def test_prohorov_exact_against_subset_enumeration():
    # the returned value is feasible and 1e-9 below it is not: exact, not a
    # bisection bracket; normalized, unnormalized and partly zero weights
    rng = np.random.default_rng(64)
    for trial in range(30):
        m = int(rng.integers(2, 9))
        sample = random_metric_sample(m, rng, scale=0.5 if trial % 2 else 1.0)
        mu, nu = rng.random(m), rng.random(m)
        if trial % 3 == 0:
            mu, nu = mu / mu.sum(), nu / nu.sum()
        if trial % 4 == 0:
            mu[rng.integers(m)] = 0.0
        value = prohorov_distance(sample, mu, nu)
        assert brute_force_feasible(sample.dist, mu, nu, value, slack=1e-12)
        assert not brute_force_feasible(sample.dist, mu, nu, value - 1e-9, slack=1e-12)


@pytest.mark.parametrize("m", [23, 40])
def test_prohorov_beyond_old_support_cap_within_dudley_bracket(m):
    # probability measures: rho^2 / 4 <= beta <= 2 rho (Dudley, Real
    # Analysis and Probability, 11.3) for Prohorov rho and bounded-Lipschitz beta
    rng = np.random.default_rng(69 + m)
    sample = random_metric_sample(m, rng)
    mu, nu = rng.random(m) + 0.05, rng.random(m) + 0.05
    mu, nu = mu / mu.sum(), nu / nu.sum()
    rho, beta = prohorov_distance(sample, mu, nu), bl_distance(sample, mu, nu)
    assert 0.0 < rho <= 1.0
    assert rho * rho / 4.0 <= beta + 1e-12 and beta <= 2.0 * rho + 1e-12


def bl_by_split_lp(dist, mu, nu):
    """Bounded-Lipschitz LP in the split form f = p - q with p, q in [0, 1],
    written out row by row: +-f_i <= a, +-(f_i - f_j) <= b dist_ij for
    i < j, and a + b <= 1."""
    m = len(mu)
    tau = mu - nu
    rows = []
    for i in range(m):
        for sign in (1.0, -1.0):
            r = np.zeros(2 * m + 2)
            r[i], r[m + i], r[2 * m] = sign, -sign, -1.0
            rows.append(r)
    for i, j in combinations(range(m), 2):
        for sign in (1.0, -1.0):
            r = np.zeros(2 * m + 2)
            r[i], r[m + i], r[j], r[m + j] = sign, -sign, -sign, sign
            r[2 * m + 1] = -dist[i, j]
            rows.append(r)
    cap = np.zeros(2 * m + 2)
    cap[2 * m] = cap[2 * m + 1] = 1.0
    rows.append(cap)
    b_ub = np.zeros(len(rows))
    b_ub[-1] = 1.0
    bounds = [(0.0, 1.0)] * (2 * m) + [(0.0, None)] * 2
    res = linprog(np.concatenate([-tau, tau, [0.0, 0.0]]), A_ub=np.array(rows),
                  b_ub=b_ub, bounds=bounds, method="highs")
    assert res.status == 0
    return -res.fun


def test_bl_distance_against_split_form_lp():
    rng = np.random.default_rng(70)
    for trial in range(15):
        m = int(rng.integers(2, 16))
        sample = random_metric_sample(m, rng)
        mu, nu = rng.random(m), rng.random(m)
        if trial % 2:
            mu, nu = mu / mu.sum(), nu / nu.sum()
        assert bl_distance(sample, mu, nu) == pytest.approx(
            bl_by_split_lp(sample.dist, mu, nu), abs=1e-9)


def test_metric_axioms_on_random_triples():
    rng = np.random.default_rng(65)
    for _ in range(8):
        sample = random_metric_sample(5, rng)
        w = [rng.random(5) for _ in range(3)]
        for d in (bl_distance, prohorov_distance):
            d01, d10 = d(sample, w[0], w[1]), d(sample, w[1], w[0])
            assert d01 == pytest.approx(d10, abs=2e-6)
            assert d(sample, w[0], w[0]) <= 2e-6
            d02, d21 = d(sample, w[0], w[2]), d(sample, w[2], w[1])
            assert d01 <= d02 + d21 + 1e-6


def test_sphere_distance_quotient_metric_table():
    units = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    sample = MetricSample.from_sphere_pairs(units)
    assert sample.dist[0, 1] == pytest.approx(math.pi / 2.0, abs=1e-12)
    # antipodal representatives coincide in the quotient
    more = MetricSample.from_sphere_pairs(np.array([[1.0, 0, 0], [-1.0, 0, 0]]))
    assert more.dist[0, 1] == pytest.approx(0.0, abs=1e-9)


def test_grassmann_metric_table_satisfies_triangle():
    rng = np.random.default_rng(66)
    subs = [haar_sample(3, 1, rng) for _ in range(6)]
    sample = MetricSample.from_subspaces(subs)  # construction validates it
    assert sample.size == 6


def contracting_family(n, t_values, rng_seed=67):
    rng = np.random.default_rng(rng_seed)
    eye = np.eye(n)
    base_units = [eye[i] for i in range(n)]
    extra = rng.standard_normal(n)
    base_units.append(extra / np.linalg.norm(extra))
    weight = 1.0 / len(base_units)
    base = SphereMeasure.atoms(n, [(u, weight) for u in base_units])
    family = []
    for t in t_values:
        moved = []
        for i, u in enumerate(base_units):
            drift = np.roll(u, 1)
            v = u + t * (i + 1) / len(base_units) * (drift - (drift @ u) * u)
            moved.append(v / np.linalg.norm(v))
        family.append((t, SphereMeasure.atoms(n, [(u, weight) for u in moved])))
    return base, family


def test_stability_harness_trivial_family_gives_zeros():
    base, _ = contracting_family(3, [])
    report = stability_harness("area-measure", base, [(0.0, base)],
                               rho=0.02, upper=2.0, order=2)
    entry = report["entries"][0]
    assert entry["d_BL_lhs"] == 0.0 and entry["d_BL_rhs"] == 0.0
    assert entry["d_P_lhs"] == 0.0 and entry["d_P_rhs"] == 0.0


@pytest.mark.parametrize("case,order", [("area-measure", 2),
                                        ("hyperplane-intersection", 2),
                                        ("line-proximity", 2)])
def test_stability_harness_contracting_trend(case, order):
    base, family = contracting_family(3, [0.2, 0.1, 0.05, 0.025])
    report = stability_harness(case, base, family, rho=0.02, upper=2.0,
                               order=order)
    lhs = [e["d_BL_lhs"] for e in report["entries"]]
    rhs = [e["d_BL_rhs"] for e in report["entries"]]
    assert all(a > b for a, b in zip(lhs, lhs[1:]))
    assert all(a > b for a, b in zip(rhs, rhs[1:]))
    assert all(math.isfinite(e["ratio"]) for e in report["entries"])
    assert report["exponent"] > 0.0


def test_stability_harness_rejects_measures_outside_class():
    base, family = contracting_family(3, [0.1])
    with pytest.raises(ValueError, match="lower bound"):
        stability_harness("area-measure", base, family, rho=0.9, upper=2.0)
    with pytest.raises(ValueError, match="upper bound"):
        stability_harness("area-measure", base, family, rho=0.02, upper=0.5)


def test_co_vanishing_of_both_metrics_on_tiny_perturbation():
    # topological consequence of metric equivalence: at the end of a
    # contracting sequence both distances are tiny together
    base, family = contracting_family(3, [1e-4])
    _, nu = family[0]
    d_bl, d_p = sphere_distances(base, nu)
    assert d_bl < 1e-4 and d_p < 1e-4
    assert d_bl > 0.0


def split_copies(kind, rng):
    """A measure and a copy of it with each atom split into two halves, the
    second half given as -u (sphere) or as a rotated basis of the same span
    (Grassmann)."""
    from flatproc.measures import GrassmannMeasure

    if kind == "sphere":
        units = rng.standard_normal((3, 4))
        units /= np.linalg.norm(units, axis=1, keepdims=True)
        weights = rng.uniform(0.2, 1.0, 3)
        mu = SphereMeasure(4, pair_atoms=tuple(zip(units, weights)))
        copy = SphereMeasure(4, pair_atoms=tuple(
            (sign * u, w / 2.0) for u, w in zip(units, weights) for sign in (1.0, -1.0)))
        return mu, copy, sphere_distances
    bases = [haar_sample(5, 2, rng).basis for _ in range(3)]
    weights = rng.uniform(0.2, 1.0, 3)
    turn = np.linalg.qr(rng.standard_normal((2, 2)))[0]
    mu = GrassmannMeasure.discrete([(Subspace(b), w) for b, w in zip(bases, weights)])
    copy = GrassmannMeasure.discrete([(Subspace(b), w / 2.0) for b, w in zip(bases, weights)]
                                     + [(Subspace(turn @ b), w / 2.0)
                                        for b, w in zip(bases, weights)])
    return mu, copy, grassmann_distances


@pytest.mark.parametrize("kind", ["sphere", "grassmann"])
def test_grassmann_distances_merge_equal_subspaces(kind, monkeypatch):
    # one merge of both measures' atoms: a split copy is the same measure
    mu, copy, distances = split_copies(kind, np.random.default_rng(41))
    assert distances(mu, copy) == (0.0, 0.0)
    assert distances(copy, mu) == (0.0, 0.0)
    if kind == "grassmann":
        return
    # sphere atoms 1e-9 apart stay two support points (the merge cut is an
    # angle of 1e-12), and their table distance is their angle atan(1e-9);
    # the BL and Prohorov values are checked to be positive at 1e-5, since
    # the BL solve returns 0 at 1e-7
    u = mu.pair_atoms[0][0]
    side = np.roll(u, 1) - (np.roll(u, 1) @ u) * u
    tables = []
    table = MetricSample.from_sphere_pairs
    monkeypatch.setattr(MetricSample, "from_sphere_pairs",
                        lambda units: tables.append(table(units)) or tables[-1])
    for gap in (1e-9, 1e-5):
        v = u + gap * side / np.linalg.norm(side)
        d_bl, d_p = sphere_distances(SphereMeasure.atoms(4, [(u, 1.0)]),
                                     SphereMeasure.atoms(4, [(v, 1.0)]))
    assert [t.size for t in tables] == [2, 2]
    assert tables[0].dist[0, 1] == pytest.approx(math.atan(1e-9), rel=1e-6)
    assert d_bl > 0.0 and d_p > 0.0


def test_distances_reject_measures_on_other_spaces():
    from flatproc.measures import GrassmannMeasure

    e = np.eye(4)
    line, plane = (GrassmannMeasure.discrete([(Subspace(e[:k]), 1.0)]) for k in (1, 2))
    with pytest.raises(ValueError, match="one Grassmannian"):
        grassmann_distances(line, plane)
    with pytest.raises(ValueError, match="one sphere"):
        sphere_distances(SphereMeasure.atoms(4, [(e[0], 1.0)]),
                         SphereMeasure.atoms(3, [(e[0, :3], 1.0)]))
    with pytest.raises(ValueError, match="atomic"):
        sphere_distances(SphereMeasure.atoms(4, [(e[0], 1.0)]), SphereMeasure.uniform(4, 1.0))

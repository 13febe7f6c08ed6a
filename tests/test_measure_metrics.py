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


# the m = 18 support of the benchmark's seeded metric pairs at seed 16905:
# units in R^3 under the quotient metric arccos|<u, v>|, two probability vectors
UNITS_16905 = np.array([
    [0.36703051970737083, -0.8992718521899334, -0.23790488322483788],
    [-0.31340063710017024, 0.3734923834891715, -0.8730884721153894],
    [0.08659791317378668, -0.6418799822038171, 0.7618995274181319],
    [0.03477645470546526, -0.7738942684518016, -0.6323592803585388],
    [0.1167634993196187, -0.7167591077553498, -0.687475575330784],
    [-0.7300425002778904, -0.3228419550125693, -0.6023379615063861],
    [-0.7645698635839235, 0.03196824005857723, -0.6437475866570823],
    [0.7333512706075356, -0.6795805000602405, 0.01913786394002375],
    [0.143063933054956, -0.5999720461728074, -0.7871253107797143],
    [-0.2330530477523262, -0.04792219051781502, 0.9712825235683622],
    [-0.9758307592145449, 0.006049991309517225, 0.21844387603208235],
    [0.4104654470703324, -0.4247994808972782, -0.8068850709926136],
    [0.7387572011850555, -0.3544219116308614, -0.5732564053311131],
    [0.25571795680729525, 0.8637328252028881, -0.43425100257033306],
    [-0.6994862360286095, -0.6775778146998674, 0.22717242489589373],
    [-0.9488224810206557, 0.025204832804959942, -0.3148025030286155],
    [0.6248887128294347, -0.31467179095973763, 0.7144898603567187],
    [0.5653346162207955, 0.04464738562757765, 0.8236524647320059],
])
MU_16905 = np.array([
    0.026032679623656768, 0.07629787801393442, 0.08225910669045298, 0.05297173895844378,
    0.02700654692365994, 0.014880974217719316, 0.016755578290023644, 0.05638557479655555,
    0.00858460049500104, 0.08370275046115187, 0.08739508361857258, 0.10366840303914832,
    0.07287261777657966, 0.03726617568518981, 0.058100689814942354, 0.018614563540962553,
    0.10504864325691948, 0.07215639479708578])
NU_16905 = np.array([
    0.09899805224822443, 0.0762978271622317, 0.03914854127200721, 0.02544905645729719,
    0.06736243158582632, 0.07594118673560384, 0.08517637745687745, 0.022355602398699697,
    0.04711862149783073, 0.0333044930962617, 0.036399663571789344, 0.10017436613265768,
    0.05275091387330657, 0.07367899398337503, 0.09451248986487444, 0.02564895501326703,
    0.0074188090829019355, 0.038263618566967667])


def enumerated_feasible(dist, mu, nu, eps, slack=1e-12):
    """brute_force_feasible over all 2^m subsets at once, as bit masks in
    blocks of 2^15."""
    m = len(mu)
    for w_from, w_to in ((mu, nu), (nu, mu)):
        near = (dist < eps).astype(float)
        for start in range(0, 1 << m, 1 << 15):
            masks = np.arange(start, min(start + (1 << 15), 1 << m))
            bits = ((masks[:, None] >> np.arange(m)) & 1).astype(float)
            if np.any(bits @ w_from > ((bits @ near) > 0) @ w_to + eps + slack):
                return False
    return True


def test_prohorov_exact_where_the_lp_tolerance_shows():
    # at this support a max flow from an LP solver read 5.1e-8 above the true
    # flow, within its primal tolerance, and the distance came out infeasible
    dist = np.arccos(np.clip(np.abs(UNITS_16905 @ UNITS_16905.T), 0.0, 1.0))
    np.fill_diagonal(dist, 0.0)
    dist = 0.5 * (dist + dist.T)
    value = prohorov_distance(MetricSample(dist), MU_16905, NU_16905)
    assert enumerated_feasible(dist, MU_16905, NU_16905, value)
    assert not enumerated_feasible(dist, MU_16905, NU_16905, value - 1e-9)


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


def max_flow_by_dense_lp(adjacent, source_caps, sink_caps):
    """Max flow of the bipartite network of `_max_flow` as a dense LP with
    one variable per (left, right) pair, fixed at 0 off the edges: row sums
    at most the source caps, column sums at most the sink caps."""
    p, q = adjacent.shape
    rows = np.vstack([np.kron(np.eye(p), np.ones(q)), np.kron(np.ones(p), np.eye(q))])
    res = linprog(-np.ones(p * q), A_ub=rows, b_ub=np.concatenate([source_caps, sink_caps]),
                  bounds=[(0.0, None if edge else 0.0) for edge in adjacent.ravel()],
                  method="highs")
    assert res.status == 0
    return -res.fun


def test_max_flow_against_dense_lp():
    rng = np.random.default_rng(71)
    for trial in range(24):
        p, q = rng.integers(1, 9, size=2)
        adjacent = rng.random((p, q)) < (0.0, 0.3, 0.7, 1.0)[trial % 4]
        source, sink = rng.random(p), rng.random(q)
        flow = measure_metrics._max_flow(adjacent, source, sink)
        assert flow == pytest.approx(max_flow_by_dense_lp(adjacent, source, sink), abs=1e-12)
        assert measure_metrics._greedy_flow(adjacent, source, sink) <= flow + 1e-12


SCALES = (1.0, 1e-4, 1e-8, 1e-12)


@pytest.mark.parametrize("scale", SCALES)
def test_bl_distance_two_point_formula_at_every_scale(scale):
    for rho in (0.3, 1.0, 2.5):
        value = bl_distance(two_point_sample(rho * scale), np.array([1.0, 0.0]),
                            np.array([0.0, 1.0]))
        assert value / scale == pytest.approx(2.0 * rho / (2.0 + rho * scale), rel=1e-9)


def transport_cost(dist, mu, nu):
    """Kantorovich-Rubinstein distance of two measures of equal mass: the
    optimal transport LP, one variable per (source, target) pair."""
    m = len(mu)
    rows = np.vstack([np.kron(np.eye(m), np.ones(m)), np.kron(np.ones(m), np.eye(m))])
    res = linprog(dist.ravel(), A_eq=rows, b_eq=np.concatenate([mu, nu]), bounds=(0.0, None),
                  method="highs")
    assert res.status == 0
    return res.fun


@pytest.mark.parametrize("scale", SCALES)
def test_bl_distance_scales_linearly_on_random_supports(scale):
    # equal masses, exactly (dyadic weights, one a permutation of the other):
    # f = b h + const for a 1-Lipschitz h centred on its range gives
    # W1 / (1 + scale diam / 2) <= BL / scale <= W1, W1 of the unit table
    rng = np.random.default_rng(72)
    for m in (2, 3, 8, 14):
        unit = random_metric_sample(m, rng).dist
        counts = rng.integers(1, 50, m)
        mu, nu = counts / 64.0, rng.permutation(counts) / 64.0
        if np.array_equal(mu, nu):
            nu = nu[::-1]
        w1 = transport_cost(unit, mu, nu)
        value = bl_distance(MetricSample(unit * scale), mu, nu)
        assert math.copysign(1.0, value) == 1.0
        assert w1 / (1.0 + scale * unit.max() / 2.0) * (1.0 - 1e-9) <= value / scale \
            <= w1 * (1.0 + 1e-9)


def test_bl_distance_never_returns_negative_zero():
    # two points at distance 0 carry the two unit masses: the solver's
    # optimum is -0.0 there
    mu, nu = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    for sample, value in ((MetricSample(np.zeros((2, 2))), 0.0),
                          (two_point_sample(1e-300), 1e-300)):
        result = bl_distance(sample, mu, nu)
        assert result == value and math.copysign(1.0, result) == 1.0


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
    bases = np.array([haar_sample(3, 1, rng).basis for _ in range(6)])
    sample = MetricSample.from_subspaces(bases)  # construction validates it
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


def test_stability_harness_finite_down_to_small_t():
    # the sphere metric, the Grassmann metric and the BL program resolve
    # displacements of 1e-8 on supports of diameter about 1
    base, family = contracting_family(3, [1e-2, 1e-4, 1e-6, 1e-8])
    report = stability_harness("area-measure", base, family, rho=0.02, upper=2.0, order=2)
    lhs = [e["d_BL_lhs"] for e in report["entries"]]
    rhs = [e["d_BL_rhs"] for e in report["entries"]]
    assert all(a > b > 0.0 for a, b in zip(lhs, lhs[1:]))
    assert all(a > b > 0.0 for a, b in zip(rhs, rhs[1:]))
    assert all(math.isfinite(e["ratio"]) and math.isfinite(e["exponent_estimate"])
               for e in report["entries"])
    # d_BL of the generating measures is linear in t below 1e-4
    assert lhs[3] / 1e-8 == pytest.approx(lhs[2] / 1e-6, rel=1e-6)


def test_stability_harness_names_a_zero_distance_of_distinct_measures(monkeypatch):
    base, family = contracting_family(3, [0.1])
    monkeypatch.setattr(measure_metrics, "bl_distance", lambda sample, mu, nu: 0.0)
    with pytest.raises(ValueError, match="t=0.1: a bounded-Lipschitz distance reads 0"):
        stability_harness("area-measure", base, family, rho=0.02, upper=2.0)


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
        mu = SphereMeasure.atoms(4, tuple(zip(units, weights)))
        copy = SphereMeasure.atoms(4, tuple(
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
    # angle of 1e-12), their table distance is their angle atan(1e-9), and
    # both distances of the two unit masses are positive at either gap
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
        assert d_bl > 0.0 and d_p > 0.0
    assert [t.size for t in tables] == [2, 2]
    assert tables[0].dist[0, 1] == pytest.approx(math.atan(1e-9), rel=1e-6)


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

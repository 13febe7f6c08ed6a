"""Acceptance suite: every criterion at its stated tolerance, one printed
pass/fail line per criterion.

Statistical criteria use fixed master seeds and the replication budgets
stated in each test; closed-form identities are checked exactly at 1e-10.
"""
import math
from fractions import Fraction

import numpy as np

from flatproc import constants
from flatproc._rng import replication_stream
from flatproc.closed_form import (WindowDescriptor, asymptotic_covariance,
                                  hyperplane_intersection, isoperimetric_bound,
                                  proximity_intensity, weibull_beta, weibull_cdf)
from flatproc.derived_processes import f_alpha, order_statistics, proximity
from flatproc.flat_geometry import Subspace
from flatproc.measure_metrics import (MetricSample, bl_distance, contracting_family,
                                      prohorov_distance, stability_harness)
from flatproc.measures import (GrassmannMeasure, SphereMeasure,
                               symmetrize_line_measure, t_lift)
from flatproc.simulator import (FlatProcessSpec, build_factorial_distribution,
                                sample_cube_process, sample_poisson)
from flatproc.stats_harness import clt_diagnostics, factorial_moment_check, \
    ks_statistic
from flatproc.zonoid_engine import (area_measure, from_measure, intrinsic_volume,
                                    merge_grassmann_atoms)


def report(criterion: int, name: str, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"criterion {criterion} [{name}]: {status} ({detail})")


def random_line_distribution(n, count, rng):
    units = rng.standard_normal((count, n))
    units /= np.linalg.norm(units, axis=1, keepdims=True)
    weights = rng.random(count) + 0.2
    weights /= weights.sum()
    return GrassmannMeasure.discrete(
        [(Subspace(units[i:i + 1]), weights[i]) for i in range(count)])


def random_even_measure(n, count, rng, mass=None):
    units = rng.standard_normal((count, n))
    units /= np.linalg.norm(units, axis=1, keepdims=True)
    weights = rng.random(count) + 0.2
    if mass is not None:
        weights *= mass / weights.sum()
    return SphereMeasure.atoms(n, list(zip(units, weights)))


def test_criterion_1_proximity_closed_form_vs_simulation():
    """Isotropic Poisson lines, n=3: Monte Carlo F_0 over the unit cube
    against pi/4, with the replication count extended past the 10^4 floor
    until the standard error reaches 0.01."""
    iso = GrassmannMeasure.isotropic(3, 1, 1.0)
    spec = FlatProcessSpec(3, 1, 1.0, iso)
    window = WindowDescriptor.unit_cube(3)
    delta = 1.0
    radius = window.circumradius() + delta / 2.0
    target = proximity_intensity(3, 1, 1.0, iso, delta)
    seed = 2024

    def run_block(start, count):
        out = np.empty(count)
        for i in range(count):
            sample = sample_poisson(spec, radius, replication_stream(seed, start + i))
            out[i] = f_alpha(proximity(sample, delta=delta), 0.0, window)
        return out

    values = run_block(0, 10_000)
    needed = int(math.ceil((values.std(ddof=1) / 0.01) ** 2 * 1.1))
    if needed > values.shape[0]:
        extra = min(needed, 60_000) - values.shape[0]
        values = np.concatenate([values, run_block(values.shape[0], extra)])
    mean = float(values.mean())
    se = float(values.std(ddof=1)) / math.sqrt(values.shape[0])
    passed = (abs(mean - target) <= 3.0 * se and se <= 0.01
              and values.shape[0] >= 10_000)
    report(1, "proximity closed form vs simulation", passed,
           f"mean={mean:.5f} target={target:.5f} se={se:.5f} "
           f"reps={values.shape[0]}")
    assert values.shape[0] >= 10_000
    assert se <= 0.01
    assert abs(mean - target) <= 3.0 * se
    assert abs(target - math.pi / 4.0) < 1e-12


def test_criterion_2_zonoid_identity_for_line_processes():
    """proximity equals gamma^2 kappa_{n-2} delta^{n-2} V_2(Z_Q) exactly for
    20 random discrete line-direction distributions in n = 3, 4, 5."""
    rng = np.random.default_rng(9001)
    worst = 0.0
    cases = 0
    for n in (3, 4, 5):
        for _ in range(7 if n < 5 else 6):
            q = random_line_distribution(n, n + 2, rng)
            gamma = 0.5 + rng.random()
            delta = 0.5 + rng.random()
            lhs = proximity_intensity(n, 1, gamma, q, delta)
            zono = from_measure(symmetrize_line_measure(q))
            rhs = gamma ** 2 * constants.ball_volume(n - 2) \
                * delta ** (n - 2) * intrinsic_volume(zono, 2)
            worst = max(worst, abs(lhs - rhs))
            cases += 1
    passed = worst <= 1e-10 and cases == 20
    report(2, "zonoid identity", passed, f"cases={cases} worst={worst:.2e}")
    assert cases == 20
    assert worst <= 1e-10


def test_criterion_3_lift_identity_for_hyperplane_intersections():
    """the lifted intersection measure equals binom(n-1, r) times the r-th
    area measure of the intensity-weighted zonotope, component by component,
    for 10 random discrete hyperplane distributions with n <= 5."""
    rng = np.random.default_rng(9002)
    worst = 0.0
    cases = 0
    for n in (3, 4, 5):
        trials = 4 if n == 3 else 3
        for _ in range(trials):
            gamma = 0.5 + rng.random()
            even = random_even_measure(n, n + 2, rng, mass=1.0)
            scaled = even.scaled(gamma)
            for r in range(2, n):
                lifted = t_lift(hyperplane_intersection(n, gamma, even, r))
                target = area_measure(scaled, r)
                scale = math.comb(n - 1, r)
                lift_atoms = merge_grassmann_atoms(list(lifted.subspheres))
                area_atoms = merge_grassmann_atoms(
                    [(s, scale * w) for s, w in target.subspheres])
                assert len(lift_atoms) == len(area_atoms)
                for sub, weight in lift_atoms:
                    match = [w for s, w in area_atoms if s.same_span(sub, tol=1e-8)]
                    assert match, "component sets differ"
                    worst = max(worst, abs(weight - match[0]))
            cases += 1
    passed = worst <= 1e-10 and cases == 10
    report(3, "T-lift / area-measure identity", passed,
           f"cases={cases} worst={worst:.2e}")
    assert cases == 10
    assert worst <= 1e-10


def test_criterion_4_intrinsic_volume_total_mass_relation():
    """V_m equals binom(n, m) / (n kappa_{n-m}) times the total m-th area
    mass for 50 random zonotopes with n <= 5, for every order the area
    measure engine covers (m = 2, ..., n-1; the first-order measure is out
    of scope by design)."""
    rng = np.random.default_rng(9003)
    worst = 0.0
    cases = 0
    for n in (3, 4, 5):
        trials = {3: 17, 4: 17, 5: 16}[n]
        for _ in range(trials):
            q = random_even_measure(n, n + 2, rng)
            zono = from_measure(q)
            for m in range(2, n):
                mixture = area_measure(q, m)
                total = sum(w * constants.sphere_surface(s.k)
                            for s, w in mixture.subspheres)
                lhs = math.comb(n, m) / (n * constants.ball_volume(n - m)) * total
                worst = max(worst, abs(lhs - intrinsic_volume(zono, m)))
            cases += 1
    passed = worst <= 1e-10 and cases == 50
    report(4, "intrinsic-volume / area-measure relation", passed,
           f"cases={cases} worst={worst:.2e}")
    assert cases == 50
    assert worst <= 1e-10


def test_criterion_5_count_law_exactness_and_cube_moments():
    """count-law tables match the exact fractions; factorial moments equal 1
    within 1e-12 up to kappa = 12; the kappa = 3 cube process passes the
    order-2 and order-3 moment checks at 10^5 cubes and has exactly zero
    same-cube 4-tuples."""
    d3 = build_factorial_distribution(3)
    d4 = build_factorial_distribution(4)
    tables_ok = (d3.exact == (Fraction(1, 3), Fraction(1, 2), Fraction(0),
                              Fraction(1, 6))
                 and d4.exact == (Fraction(3, 8), Fraction(1, 3), Fraction(1, 4),
                                  Fraction(0), Fraction(1, 24)))
    moment_worst = 0.0
    for kappa in range(2, 13):
        dist = build_factorial_distribution(kappa)
        for m in range(1, kappa + 1):
            moment_worst = max(moment_worst, abs(dist.factorial_moment(m) - 1.0))

    def one_cube(rng):
        return sample_cube_process(2, d3, [(0, 1), (0, 1)], rng)

    def slabs(r):
        edges = np.linspace(0.0, 1.0, r + 1)

        def make(i):
            lo, hi = edges[i], edges[i + 1]
            return lambda pts: (pts[:, 0] >= lo) & (pts[:, 0] < hi)

        return [make(i) for i in range(r)]

    z2 = factorial_moment_check(one_cube, slabs(2), 100_000, 515)
    z3 = factorial_moment_check(one_cube, slabs(3), 100_000, 516)
    z4 = factorial_moment_check(one_cube, slabs(4), 100_000, 517)
    passed = (tables_ok and moment_worst <= 1e-12
              and abs(z2["z"]) < 3.0 and abs(z3["z"]) < 3.0 and z4["exactZero"])
    report(5, "count-law exactness and cube moments", passed,
           f"tables={'ok' if tables_ok else 'BAD'} "
           f"momentErr={moment_worst:.2e} z2={z2['z']:.2f} z3={z3['z']:.2f} "
           f"fourTuples={'0' if z4['exactZero'] else 'NONZERO'}")
    assert tables_ok
    assert moment_worst <= 1e-12
    assert abs(z2["z"]) < 3.0
    assert abs(z3["z"]) < 3.0
    assert z4["exactZero"]


def test_criterion_6_weibull_limit_of_shortest_segment():
    """scaled shortest segment length of the isotropic line process over the
    8-ball: Kolmogorov-Smirnov distance to 1 - exp(-beta x) below 0.05 at
    2000 replications, with beta = pi^2 / 3."""
    iso = GrassmannMeasure.isotropic(3, 1, 1.0)
    spec = FlatProcessSpec(3, 1, 1.0, iso)
    base = WindowDescriptor.ball(1.0)
    rho, alpha, delta, reps, seed = 8.0, 1.0, 1.0, 2_000, 600
    window = base.rescaled(rho)
    radius = window.circumradius() + delta / 2.0
    beta, _ = weibull_beta(3, 1, 1.0, iso, base)
    assert abs(beta - math.pi ** 2 / 3.0) < 1e-12
    minima = np.empty(reps)
    for i in range(reps):
        sample = sample_poisson(spec, radius, replication_stream(seed, i))
        seg = proximity(sample, delta=delta)
        minima[i] = order_statistics(seg, alpha, window, 1)[0]
    assert np.all(np.isfinite(minima))
    scaled = rho ** (3.0 * alpha / 1.0) * minima
    ks = ks_statistic(scaled, lambda x: weibull_cdf(x, beta, 3, 1, alpha))
    passed = ks < 0.05
    report(6, "Weibull limit of the shortest segment", passed,
           f"ks={ks:.4f} beta={beta:.4f} reps={reps}")
    assert ks < 0.05


def test_criterion_7_clt_diagnostics_across_scales():
    """standardized F_0 of the isotropic line process: KS against the normal
    law decreases over rho in {2, 4, 8} with final KS < 0.06, and the
    variance at rho = 8 scaled by rho^{n+k} is within 15% of pi^3 / 2."""
    iso = GrassmannMeasure.isotropic(3, 1, 1.0)
    spec = FlatProcessSpec(3, 1, 1.0, iso)
    base = WindowDescriptor.ball(1.0)
    delta, reps, seed = 1.0, 2_500, 700
    values = {}
    for rho in (2.0, 4.0, 8.0):
        window = base.rescaled(rho)
        radius = window.circumradius() + delta / 2.0
        out = np.empty(reps)
        for i in range(reps):
            sample = sample_poisson(spec, radius,
                                    replication_stream(seed + int(rho), i))
            out[i] = f_alpha(proximity(sample, delta=delta), 0.0, window)
        values[rho] = out
    target, _ = asymptotic_covariance(3, 1, 1.0, iso, delta, 0.0, 0.0, base)
    assert abs(target - math.pi ** 3 / 2.0) < 1e-12
    diag = clt_diagnostics(values, 3, 1, target_variance=target)
    ks_seq = [row["ks_normal"] for row in diag["scales"]]
    passed = (diag["ksDecreasing"] and diag["finalKS"] < 0.06
              and abs(diag["varianceRatio"] - 1.0) <= 0.15)
    report(7, "central-limit diagnostics", passed,
           f"ks={['%.4f' % k for k in ks_seq]} "
           f"varianceRatio={diag['varianceRatio']:.4f}")
    assert diag["ksDecreasing"]
    assert diag["finalKS"] < 0.06
    assert abs(diag["varianceRatio"] - 1.0) <= 0.15


def test_criterion_8_metric_engine_and_stability():
    """two-point distances match the hand-solved values on 20 random pairs;
    metric axioms hold on random triples within 1e-6; along a contracting
    family, the generating-measure distance falls below 1e-2 by the time the
    derived-measure distance falls below 1e-3."""
    rng = np.random.default_rng(9008)
    worst_bl, worst_p = 0.0, 0.0
    for _ in range(20):
        rho = 0.05 + 2.4 * rng.random()
        sample = MetricSample(np.array([[0.0, rho], [rho, 0.0]]))
        mu, nu = np.array([1.0, 0.0]), np.array([0.0, 1.0])
        worst_bl = max(worst_bl, abs(bl_distance(sample, mu, nu)
                                     - 2.0 * rho / (2.0 + rho)))
        worst_p = max(worst_p, abs(prohorov_distance(sample, mu, nu)
                                   - min(rho, 1.0)))
    axioms_ok = True
    for _ in range(5):
        pts = rng.standard_normal((5, 3))
        dist = np.linalg.norm(pts[:, None] - pts[None, :], axis=2)
        sample = MetricSample(dist)
        w = [rng.random(5) for _ in range(3)]
        for metric in (bl_distance, prohorov_distance):
            d01 = metric(sample, w[0], w[1])
            axioms_ok &= abs(metric(sample, w[1], w[0]) - d01) <= 1e-6
            axioms_ok &= metric(sample, w[0], w[0]) <= 1e-6
            axioms_ok &= d01 <= (metric(sample, w[0], w[2])
                                 + metric(sample, w[2], w[1]) + 1e-6)

    base, family = contracting_family(3, (0.2, 0.1, 0.05, 0.025, 0.002), rng)
    harness = stability_harness("area-measure", base, family,
                                rho=0.02, upper=2.0, order=2)
    final = harness["final"]
    lhs_seq = [e["d_BL_lhs"] for e in harness["entries"]]
    rhs_seq = [e["d_BL_rhs"] for e in harness["entries"]]
    covanishing = (all(a > b for a, b in zip(lhs_seq, lhs_seq[1:]))
                   and all(a > b for a, b in zip(rhs_seq, rhs_seq[1:]))
                   and final["d_BL_rhs"] < 1e-3 and final["d_BL_lhs"] < 1e-2)
    passed = worst_bl <= 1e-6 and worst_p <= 1e-6 and axioms_ok and covanishing
    report(8, "metric engine and stability harness", passed,
           f"blErr={worst_bl:.2e} pErr={worst_p:.2e} axioms={axioms_ok} "
           f"finalLHS={final['d_BL_lhs']:.2e} finalRHS={final['d_BL_rhs']:.2e}")
    assert worst_bl <= 1e-6
    assert worst_p <= 1e-6
    assert axioms_ok
    assert covanishing


def test_criterion_9_isoperimetric_bound():
    """the proximity of 100 random discrete line processes never exceeds the
    isotropic bound (plus 1e-10), and the isotropic distribution attains it
    within 1e-9."""
    rng = np.random.default_rng(9009)
    gamma, delta, n = 1.0, 1.0, 3
    bound = isoperimetric_bound(n, gamma, delta)
    worst_excess = -math.inf
    for _ in range(100):
        q = random_line_distribution(n, int(rng.integers(3, 9)), rng)
        value = proximity_intensity(n, 1, gamma, q, delta)
        worst_excess = max(worst_excess, value - bound)
    iso = GrassmannMeasure.isotropic(n, 1, 1.0)
    iso_gap = abs(proximity_intensity(n, 1, gamma, iso, delta) - bound)
    passed = worst_excess <= 1e-10 and iso_gap <= 1e-9
    report(9, "isoperimetric bound", passed,
           f"worstExcess={worst_excess:.2e} isotropicGap={iso_gap:.2e}")
    assert worst_excess <= 1e-10
    assert iso_gap <= 1e-9

import math

import numpy as np
import pytest
from scipy.special import ndtr
from scipy.stats import kstest

from flatproc._rng import replication_stream
from flatproc.stats_harness import (STREAM_BLOCK, ReplicationPlan, clt_diagnostics,
                                    factorial_moment_check, ks_statistic,
                                    ks_vs_normal, replicate)


def test_replicate_constant_estimator_has_zero_variance():
    plan = ReplicationPlan(50, 1)
    out = replicate(plan, lambda rng: 4.2)
    assert out["mean"] == 4.2
    assert out["variance"] == 0.0 and out["standardError"] == 0.0


def test_replicate_is_deterministic_and_jobs_invariant():
    plan = ReplicationPlan(200, 123)
    est = lambda rng: float(rng.standard_normal())
    a = replicate(plan, est, keep_values=True)["values"]
    b = replicate(plan, est, keep_values=True)["values"]
    assert np.array_equal(a, b)
    c = replicate(plan, _normal_estimator, jobs=2, keep_values=True)["values"]
    d = replicate(plan, _normal_estimator, jobs=1, keep_values=True)["values"]
    assert np.array_equal(c, d)


def _normal_estimator(rng):
    return float(rng.standard_normal())


def _by_block(estimator, seed, replications):
    """The stream contract written out: replication i draws, after the
    replications before it in its block, from replication_stream(seed,
    i // STREAM_BLOCK)."""
    streams = [replication_stream(seed, b) for b in range(-(-replications // STREAM_BLOCK))]
    return np.array([estimator(streams[i // STREAM_BLOCK]) for i in range(replications)],
                    dtype=float)


@pytest.mark.parametrize("seed", (0, 2**32 - 1, 2**32, 2**64 - 1, 2**128 + 3))
def test_replicate_equals_a_loop_over_block_streams(seed):
    # the block size is part of the contract: changing it moves every seeded output
    assert STREAM_BLOCK == 64
    for reps in (2, 3 * STREAM_BLOCK + 5):
        values = replicate(ReplicationPlan(reps, seed), _three_draws, keep_values=True)["values"]
        assert np.array_equal(values, _by_block(_three_draws, seed, reps))
    # one stream per block, not per replication
    first = replicate(ReplicationPlan(STREAM_BLOCK, seed), _normal_estimator,
                      keep_values=True)["values"]
    rng = replication_stream(seed, 0)
    assert np.array_equal(first, rng.standard_normal(STREAM_BLOCK))


@pytest.mark.parametrize("reps", [2, STREAM_BLOCK - 1, STREAM_BLOCK, STREAM_BLOCK + 1,
                                  2 * STREAM_BLOCK + 1])
def test_replicate_values_do_not_depend_on_jobs(reps):
    plan = ReplicationPlan(reps, 2**40 + 9)
    expected = _by_block(_three_draws, plan.master_seed, reps)
    for jobs in (1, 2, 3):
        out = replicate(plan, _three_draws, jobs=jobs, keep_values=True)
        assert np.array_equal(out["values"], expected)


@pytest.mark.parametrize("seed", [-1, 1.5, True, np.bool_(True), "3", None])
def test_plan_rejects_bad_master_seed(seed):
    with pytest.raises(ValueError, match="master seed"):
        ReplicationPlan(10, seed)


def test_plan_accepts_integer_seeds_and_caps_indices():
    for seed in (np.int64(3), np.uint32(3), 3):
        values = replicate(ReplicationPlan(4, seed), _normal_estimator, keep_values=True)
        assert np.array_equal(values["values"], _by_block(_normal_estimator, 3, 4))
    wide = replicate(ReplicationPlan(3, 2**70), _normal_estimator, keep_values=True)
    assert np.array_equal(wide["values"], _by_block(_normal_estimator, 2**70, 3))
    ReplicationPlan(2**32, 1)
    with pytest.raises(ValueError, match="2\\*\\*32"):
        ReplicationPlan(2**32 + 1, 1)


@pytest.mark.parametrize("reps", [10.0, np.float64(10), True, np.bool_(True), "10", None])
def test_plan_rejects_non_integer_replications(reps):
    with pytest.raises(ValueError, match="replications must be an integer"):
        ReplicationPlan(reps, 1)


def _three_draws(rng):
    return [rng.random(), rng.standard_normal(), float(rng.integers(1 << 40))]


def test_replicate_one_block_plus_one_matches_single_streams_for_any_jobs():
    plan = ReplicationPlan(STREAM_BLOCK + 1, 2**40 + 9)
    serial = replicate(plan, _three_draws, jobs=1, keep_values=True)
    pooled = replicate(plan, _three_draws, jobs=2, keep_values=True)
    expected = _by_block(_three_draws, plan.master_seed, plan.replications)
    assert np.array_equal(serial["values"], expected)
    assert np.array_equal(pooled["values"], expected)
    assert serial["mean"] == pooled["mean"] and serial["variance"] == pooled["variance"]


def test_replicate_doubling_halves_squared_standard_error():
    est = lambda rng: float(rng.standard_normal())
    small = replicate(ReplicationPlan(2_000, 7), est)
    large = replicate(ReplicationPlan(4_000, 7), est)
    ratio = large["standardError"] ** 2 / small["standardError"] ** 2
    assert 0.3 < ratio < 0.8  # 1/2 within sampling noise


def test_replicate_known_mean_within_three_se():
    plan = ReplicationPlan(500, 99)
    out = replicate(plan, lambda rng: float(np.mean(rng.random(20))))
    assert abs(out["mean"] - 0.5) < 3.0 * out["standardError"]


def test_replicate_se_consistency_meta_trial():
    hits = 0
    for trial in range(100):
        out = replicate(ReplicationPlan(100, 1000 + trial),
                        lambda rng: float(np.mean(rng.random(50))))
        if abs(out["mean"] - 0.5) < 3.0 * out["standardError"]:
            hits += 1
    assert hits >= 99


def test_replicate_vector_estimator():
    plan = ReplicationPlan(300, 5)
    out = replicate(plan, lambda rng: rng.random(2))
    assert len(out["mean"]) == 2 and len(out["standardError"]) == 2


def test_ks_statistic_quantile_construction():
    n = 200
    sample = ndtr_inverse((np.arange(1, n + 1) - 0.5) / n)
    assert ks_statistic(sample, ndtr) == pytest.approx(0.5 / n, abs=1e-12)


def ndtr_inverse(p):
    from scipy.special import ndtri

    return ndtri(p)


def test_ks_statistic_standard_normal_sample_small():
    rng = np.random.default_rng(71)
    sample = rng.standard_normal(10_000)
    d = ks_statistic(sample, ndtr)
    assert d < 0.02
    # scipy oracle computes the same supremum
    ref = kstest(sample, "norm").statistic
    assert d == pytest.approx(ref, abs=1e-12)


def test_ks_statistic_degenerate_sample():
    sample = np.zeros(100)
    assert ks_statistic(sample, ndtr) >= 0.5


def test_ks_statistic_minimum_size():
    with pytest.raises(ValueError):
        ks_statistic(np.zeros(10), ndtr)


def test_ks_vs_normal_standardizes():
    rng = np.random.default_rng(72)
    sample = 5.0 + 3.0 * rng.standard_normal(5_000)
    assert ks_vs_normal(sample) < 0.03


def test_ks_vs_normal_equals_the_ndtr_form():
    # the normal CDF comes from math.erfc, within 2.2e-16 of ndtr
    from flatproc.stats_harness import _normal_cdf

    z = np.linspace(-40.0, 40.0, 30_001)
    assert np.max(np.abs(_normal_cdf(z) - ndtr(z))) <= 2.3e-16
    for seed, size in ((74, 60), (75, 2_500), (76, 10_000)):
        rng = np.random.default_rng(seed)
        for sample in (rng.standard_normal(size), rng.gamma(2.0, size=size),
                       rng.integers(0, 5, size).astype(float)):
            z = (sample - sample.mean()) / sample.std(ddof=1)
            assert abs(ks_vs_normal(sample) - ks_statistic(z, ndtr)) <= 1e-15


def test_clt_diagnostics_loads_no_scipy_submodule():
    import os
    import subprocess
    import sys
    from pathlib import Path

    import flatproc

    script = "\n".join([
        "import sys",
        "import numpy as np",
        "from flatproc.stats_harness import clt_diagnostics",
        "rng = np.random.default_rng(77)",
        "report = clt_diagnostics({2.0: rng.standard_normal(200), 4.0: rng.gamma(3.0, size=200)},",
        "                         n=3, k=1)",
        "print(report['finalKS'] > 0, sorted(m for m in sys.modules if m.startswith('scipy')))",
    ])
    path = [str(Path(flatproc.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["True", "[]"]


def _poisson_cube(rng, mean=1.0, d=2):
    count = rng.poisson(mean)
    return rng.random((count, d))


def _factorial_cube(rng, dist, d=2):
    count = int(dist.sample(1, rng)[0])
    return rng.random((count, d))


def slab_sets(r, d=2):
    edges = np.linspace(0.0, 1.0, r + 1)

    def make(i):
        lo, hi = edges[i], edges[i + 1]
        return lambda pts: (pts[:, 0] >= lo) & (pts[:, 0] < hi)

    return [make(i) for i in range(r)]


def test_factorial_moment_check_poisson_reference_passes():
    for r in (2, 3, 4):
        out = factorial_moment_check(_poisson_cube, slab_sets(r), 20_000, 80 + r)
        assert abs(out["z"]) < 3.0


def test_factorial_moment_check_count_law_matches_up_to_kappa():
    from functools import partial

    from flatproc.simulator import build_factorial_distribution

    dist = build_factorial_distribution(3)
    sampler = partial(_factorial_cube, dist=dist)
    for r in (2, 3):
        out = factorial_moment_check(sampler, slab_sets(r), 20_000, 90 + r)
        assert abs(out["z"]) < 3.0
    out4 = factorial_moment_check(sampler, slab_sets(4), 5_000, 94)
    assert out4["exactZero"] and out4["empirical"] == 0.0


def test_factorial_moment_check_needs_two_replications():
    # one replication has no covariance: rejected, not a NaN-based pass
    with pytest.raises(ValueError, match="at least two replications"):
        factorial_moment_check(_poisson_cube, slab_sets(2), 1, 80)


def test_multivariate_correlation_matches_asymptotic_covariance():
    # the asymptotic covariance of (F_0, F_1) with one direction set is a
    # rank-one matrix: the empirical correlation must approach 1
    import math

    from flatproc._rng import replication_stream
    from flatproc.closed_form import WindowDescriptor, asymptotic_covariance
    from flatproc.derived_processes import f_alpha, proximity
    from flatproc.measures import GrassmannMeasure
    from flatproc.simulator import FlatProcessSpec, sample_poisson

    iso = GrassmannMeasure.isotropic(3, 1, 1.0)
    spec = FlatProcessSpec(3, 1, 1.0, iso)
    base = WindowDescriptor.ball(1.0)
    window = base.rescaled(4.0)
    radius = window.circumradius() + 0.5
    reps = 600
    values = np.empty((reps, 2))
    for i in range(reps):
        sample = sample_poisson(spec, radius, replication_stream(61, i))
        seg = proximity(sample, delta=1.0)
        values[i, 0] = f_alpha(seg, 0.0, window)
        values[i, 1] = f_alpha(seg, 1.0, window)
    sig = np.empty((2, 2))
    for i, ai in enumerate((0.0, 1.0)):
        for j, aj in enumerate((0.0, 1.0)):
            sig[i, j], _ = asymptotic_covariance(3, 1, 1.0, iso, 1.0, ai, aj, base)
    target = sig[0, 1] / math.sqrt(sig[0, 0] * sig[1, 1])
    empirical = float(np.corrcoef(values.T)[0, 1])
    assert abs(empirical - target) < 0.1


def test_clt_diagnostics_synthetic_trend():
    rng = np.random.default_rng(73)
    # skewness decaying in rho mimics the normalized functionals
    values = {}
    for rho, skew in ((2.0, 0.8), (4.0, 0.3), (8.0, 0.05)):
        gamma_part = rng.gamma(1.0 / skew ** 2, size=4_000)
        gamma_part = (gamma_part - gamma_part.mean()) / gamma_part.std()
        values[rho] = 10.0 + math.sqrt(rho ** 4) * gamma_part
    report = clt_diagnostics(values, n=3, k=1, target_variance=1.0)
    assert report["ksDecreasing"]
    assert report["finalKS"] < 0.06
    scaled = [row["varianceScaled"] for row in report["scales"]]
    assert all(abs(v - 1.0) < 0.2 for v in scaled)
    assert abs(report["varianceRatio"] - 1.0) < 0.2
    skews = [row["skewness"] for row in report["scales"]]
    assert skews[0] > skews[-1]

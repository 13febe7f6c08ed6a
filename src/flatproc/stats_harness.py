"""Replicated Monte Carlo estimation with derived per-replication streams,
goodness-of-fit statistics, factorial-moment estimators, and central-limit
diagnostics.

Replications are embarrassingly parallel: stream i of a plan is derived from
(master seed, i), so results are identical for any worker count and for
serial runs.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from ._rng import replication_stream

KS_MIN_POINTS = 50


@dataclass(frozen=True)
class ReplicationPlan:
    """How to run a replicated experiment: count, master seed, identity."""

    replications: int
    master_seed: int
    name: str = ""

    def __post_init__(self) -> None:
        if self.replications < 2:
            raise ValueError("need at least two replications")


def _run_indices(estimator, master_seed: int, indices) -> list:
    return [estimator(replication_stream(master_seed, i)) for i in indices]


def replicate(plan: ReplicationPlan, estimator: Callable[[np.random.Generator], object],
              jobs: int = 1, keep_values: bool = False) -> dict:
    """Mean, variance, and standard error over independent replications.

    The estimator receives one derived generator per replication and returns
    a float or a fixed-length vector.  With jobs > 1 the index range is
    split over forked worker processes; the estimator must then be
    picklable.  Results are independent of the worker count.
    """
    indices = range(plan.replications)
    if jobs <= 1 or os.cpu_count() == 1:
        raw = _run_indices(estimator, plan.master_seed, indices)
    else:
        import multiprocessing as mp

        chunks = np.array_split(np.arange(plan.replications), 4 * jobs)
        ctx = mp.get_context("fork")
        with ctx.Pool(jobs) as pool:
            parts = pool.starmap(
                _run_indices,
                [(estimator, plan.master_seed, chunk.tolist()) for chunk in chunks])
        raw = [value for part in parts for value in part]
    values = np.asarray(raw, dtype=float)
    if np.all(values == values[0]):
        # constant estimators come out exact, not with summation round-off
        mean = values[0].copy() if values.ndim > 1 else values[0]
        variance = np.zeros_like(mean)
    else:
        # an infinite value (an empty window's minimum) gives an inf mean, NaN variance
        with np.errstate(invalid="ignore"):
            mean = values.mean(axis=0)
            variance = values.var(axis=0, ddof=1)
    out = {
        "replications": plan.replications,
        "mean": mean.tolist() if mean.ndim else float(mean),
        "variance": variance.tolist() if variance.ndim else float(variance),
        "standardError": (np.sqrt(variance / plan.replications).tolist()
                          if variance.ndim
                          else float(math.sqrt(variance / plan.replications))),
    }
    if keep_values:
        out["values"] = values
    return out


def ks_statistic(sample: np.ndarray, cdf: Callable[[np.ndarray], np.ndarray]) -> float:
    """Supremum distance between the empirical distribution and a CDF."""
    sample = np.sort(np.asarray(sample, dtype=float))
    m = sample.shape[0]
    if m < KS_MIN_POINTS:
        raise ValueError(f"Kolmogorov-Smirnov statistic needs at least {KS_MIN_POINTS} points")
    theory = np.asarray(cdf(sample), dtype=float)
    upper = np.arange(1, m + 1) / m - theory
    lower = theory - np.arange(0, m) / m
    return float(max(upper.max(), lower.max()))


def ks_vs_normal(sample: np.ndarray) -> float:
    """KS distance of the internally standardized sample from the standard
    normal distribution."""
    from scipy.special import ndtr
    sample = np.asarray(sample, dtype=float)
    sd = sample.std(ddof=1)
    if sd == 0:
        return 1.0
    z = (sample - sample.mean()) / sd
    return ks_statistic(z, ndtr)


def factorial_moment_check(sampler: Callable[[np.random.Generator], np.ndarray],
                           test_sets: Sequence[Callable[[np.ndarray], np.ndarray]],
                           replications: int, master_seed: int) -> dict:
    """Compare the ordered-tuple moment of disjoint sets with the product of
    means.

    sampler(rng) returns the points (m, d) of one replication; each test set
    is an indicator over point arrays.  The sets must be pairwise disjoint,
    so distinct points are guaranteed and the ordered-tuple count is the
    product of the per-set counts.  Replication i draws from `replicate`'s
    stream (master_seed, i); at least two replications are needed.  Returns
    the empirical tuple mean, the product of empirical means, and the
    z-score of their difference (delta-method standard error).
    """
    def counts(rng):
        pts = sampler(rng)
        per_set = [float(np.count_nonzero(ind(pts))) for ind in test_sets]
        return [float(np.prod(per_set))] + per_set

    r = len(test_sets)
    plan = ReplicationPlan(replications, master_seed)
    data = replicate(plan, counts, keep_values=True)["values"]
    means = data.mean(axis=0)
    tuple_mean = means[0]
    product = float(np.prod(means[1:]))
    grad = np.zeros(r + 1)
    grad[0] = 1.0
    for j in range(r):
        others = np.prod(np.delete(means[1:], j))
        grad[j + 1] = -others
    cov = np.cov(data, rowvar=False)
    var = float(grad @ cov @ grad) / replications
    diff = tuple_mean - product
    z = diff / math.sqrt(var) if var > 0 else (0.0 if diff == 0 else math.inf)
    return {
        "empirical": tuple_mean,
        "productOfMeans": product,
        "z": z,
        "exactZero": bool(np.all(data[:, 0] == 0.0)),
        "replications": replications,
    }


def clt_diagnostics(values_by_scale: Mapping[float, np.ndarray], n: int, k: int,
                    target_variance: float | None = None) -> dict:
    """Per-scale normality diagnostics of replicated functional values.

    For each scale rho: KS distance of the standardized sample from the
    normal law, skewness, excess kurtosis, and the variance divided by
    rho^{n+k}.  The trend report flags whether the KS sequence decreases
    along the scale grid and compares the final scaled variance with the
    analytic target when given.
    """
    scales = sorted(values_by_scale)
    rows = []
    for rho in scales:
        vals = np.asarray(values_by_scale[rho], dtype=float)
        centered = vals - vals.mean()
        m2 = float(np.mean(centered ** 2))
        m3 = float(np.mean(centered ** 3))
        m4 = float(np.mean(centered ** 4))
        rows.append({
            "rho": rho,
            "replications": int(vals.shape[0]),
            "ks_normal": ks_vs_normal(vals),
            "skewness": m3 / m2 ** 1.5 if m2 > 0 else math.nan,
            "excessKurtosis": m4 / m2 ** 2 - 3.0 if m2 > 0 else math.nan,
            "varianceScaled": float(vals.var(ddof=1)) / rho ** (n + k),
        })
    ks_seq = [row["ks_normal"] for row in rows]
    out = {
        "scales": rows,
        "ksDecreasing": all(a >= b for a, b in zip(ks_seq, ks_seq[1:])),
        "finalKS": ks_seq[-1] if ks_seq else math.nan,
    }
    if target_variance is not None and rows:
        out["varianceTarget"] = target_variance
        out["varianceRatio"] = rows[-1]["varianceScaled"] / target_variance
    return out

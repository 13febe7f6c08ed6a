"""Replicated Monte Carlo estimation on derived block streams,
goodness-of-fit statistics, factorial-moment estimators, and central-limit
diagnostics.

Replications are embarrassingly parallel: block b of a plan, replications
b STREAM_BLOCK to (b + 1) STREAM_BLOCK - 1, runs in order on the one stream
`_rng.replication_stream(master seed, b)`.  Workers take whole blocks, so
results are identical for any worker count and for serial runs.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from ._rng import replication_stream

KS_MIN_POINTS = 50
# Replications per derived stream.  Part of the stream contract: changing it
# moves every seeded output of `replicate` and `factorial_moment_check`.
STREAM_BLOCK = 64


@dataclass(frozen=True)
class ReplicationPlan:
    """How to run a replicated experiment: count, master seed, identity.

    The replication count is an integer from 2 to 2**32, and the master seed
    a non-negative integer; both may be Python or numpy integers, not bools.
    Replication i of the plan draws from block i // STREAM_BLOCK's stream.
    """

    replications: int
    master_seed: int
    name: str = ""

    def __post_init__(self) -> None:
        reps, seed = self.replications, self.master_seed
        if isinstance(reps, bool) or not isinstance(reps, (int, np.integer)):
            raise ValueError(f"replications must be an integer, got {reps!r}")
        if reps < 2:
            raise ValueError("need at least two replications")
        if reps > 1 << 32:
            raise ValueError("replication indices must stay below 2**32")
        if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
            raise ValueError(f"master seed must be a non-negative integer, got {seed!r}")


def _run_blocks(estimator, master_seed: int, replications: int, blocks) -> list:
    """Values of the blocks' replications, each block in order on its stream."""
    out = []
    for b in blocks:
        rng = replication_stream(master_seed, b)
        count = min(STREAM_BLOCK, replications - b * STREAM_BLOCK)
        out.extend(estimator(rng) for _ in range(count))
    return out


def replicate(plan: ReplicationPlan, estimator: Callable[[np.random.Generator], object],
              jobs: int = 1, keep_values: bool = False) -> dict:
    """Mean, variance, and standard error over independent replications.

    The estimator receives one derived generator per replication and returns
    a float or a fixed-length vector; the replications of a block share its
    generator, one after another.  With jobs > 1 the blocks are split over
    forked worker processes; the estimator must then be picklable.  Results
    are independent of the worker count.
    """
    reps = int(plan.replications)
    blocks = range(-(-reps // STREAM_BLOCK))
    if jobs <= 1 or os.cpu_count() == 1:
        raw = _run_blocks(estimator, plan.master_seed, reps, blocks)
    else:
        import multiprocessing as mp

        chunks = np.array_split(np.arange(len(blocks)), min(len(blocks), 4 * jobs))
        ctx = mp.get_context("fork")
        with ctx.Pool(jobs) as pool:
            parts = pool.starmap(
                _run_blocks,
                [(estimator, plan.master_seed, reps, chunk.tolist()) for chunk in chunks])
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


def _normal_cdf(z: np.ndarray) -> np.ndarray:
    """The standard normal CDF, erfc(-z / sqrt(2)) / 2: within 2.2e-16 of
    scipy.special.ndtr over [-40, 40], without loading scipy."""
    root2 = math.sqrt(2.0)
    return np.array([0.5 * math.erfc(-x / root2) for x in z.tolist()])


def ks_vs_normal(sample: np.ndarray) -> float:
    """KS distance of the internally standardized sample from the standard
    normal distribution."""
    sample = np.asarray(sample, dtype=float)
    sd = sample.std(ddof=1)
    if sd == 0:
        return 1.0
    z = (sample - sample.mean()) / sd
    return ks_statistic(z, _normal_cdf)


def factorial_moment_check(sampler: Callable[[np.random.Generator], np.ndarray],
                           test_sets: Sequence[Callable[[np.ndarray], np.ndarray]],
                           replications: int, master_seed: int) -> dict:
    """Compare the ordered-tuple moment of disjoint sets with the product of
    means.

    sampler(rng) returns the points (m, d) of one replication; each test set
    is an indicator over point arrays.  The sets must be pairwise disjoint,
    so distinct points are guaranteed and the ordered-tuple count is the
    product of the per-set counts.  The replications run on `replicate`'s
    block streams of master_seed; at least two replications are needed.  Returns
    the empirical tuple mean, the product of empirical means, and the
    z-score of their difference (delta-method standard error).
    """
    def counts(rng):
        pts = sampler(rng)
        per_set = [float(np.count_nonzero(ind(pts))) for ind in test_sets]
        # left to right, as np.prod multiplies, without building an array
        return [float(math.prod(per_set))] + per_set

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

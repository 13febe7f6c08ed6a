"""Digests of seeded samples and their proximity processes on a fixed case set.

Prints one line per case, `<case> <sha256>`, and exits 0 when every case
ran.  The hash covers the dtype, shape and bytes of each output array, so
two checkouts give the same line for a case exactly when their output is
byte-identical.  Compare a change with its parent by running the script in
both checkouts (each imports flatproc from its own `src`):

    python tools/proximity_digest.py > new.txt
    (cd ../parent && python tools/proximity_digest.py) > old.txt
    diff old.txt new.txt

The 1,041 cases:
- k = 1, 419 outputs: `sample_poisson` lines in R^2-R^5 with isotropic and
  axis-atom laws, 20 seeds each at radii that straddle `SCREEN_MIN_PAIRS`
  (160 samples), and `proximity` on those in R^3-R^5 (120); anchored lines
  from `sample_sr_flats` in R^2-R^5, 10 seeds each (40); eleven radius-16.5
  samples in R^3 (11); one two-sample R^4 pair (1); radius-8.5 R^3 and
  radius-2.5 R^5 samples, single and cross in both orders, 5 seeds each (30);
  large offsets in R^3: one radius-32 sample (1) and one radius-24 pair of
  samples, cross in both orders (2); lines in R^6-R^8, where the even and
  the odd coordinates of `row_dots` have two terms or more (R^8 takes its
  einsum fallback), at a radius below and one above `SCREEN_MIN_PAIRS`,
  single and cross in both orders, 3 seeds each (54).
- k >= 2, 91 outputs: `proximity` for (n, k1, k2) = (4,1,2), (5,2,2),
  (5,1,3), (6,2,3), (7,3,3), (6,2,2), 10 seeds each; one sample when
  k1 = k2, two otherwise, and then the reversed cross call too, whose
  first flat, E of the solve, is the larger (90); planes of R^5 at radius
  4.5, 67,528 pairs in five blocks of `BLOCK_ROWS` (1).
- streams, 74 outputs: the values, mean and variance of `replicate` on a
  1,500-replication plan of a 3-draw estimator (23 whole 64-replication
  stream blocks and a last one of 28) at four master seeds of 1 to 3
  entropy words, with jobs 1 and 2 (8); the same on plans of 63-65 and
  1,023-1,025 replications, on either side of one and of sixteen whole
  blocks, with jobs 1 and 3 (12); `factorial_moment_check` on the kappa = 3 one-square cube process
  against 2, 3 and 4 slabs, 1,100 replications, 2 seeds each (6);
  `sample_cube_process` for kappa = 2, 3, 5 over four index boxes in d = 1-3,
  with and without `stationarize`, 2 seeds each (48).
- small calls, 112 outputs: `proximity` on R^3 lines at the unit cube's
  radius sqrt(3)/2 + 1/2, 20 seeds (20); the first 49 and the first 50
  lines of a sample in R^3 and R^4, on either side of `SCREEN_MIN_PAIRS`,
  single and cross against 24 lines in both orders (1,176 and 1,200
  pairs), 3 seeds each (36); the first 7-10 lines of a sample in R^3,
  single (21-45 pairs) and cross against 5 lines in both orders (35-50
  pairs), on either side of `SMALL_LINE_PAIRS`, 3 seeds (36); empty and
  one-line samples in R^3-R^5, single and cross against a few lines in
  both orders (18); empty planes of R^5, single and cross (2).
- functionals, 320 outputs: `f_alpha` for alpha = 0, 1, 2 and the first 1
  and 3 `order_statistics` of the lengths, over a ball and a box window of
  circumradius radius - delta/2, over all directions and over a double cap,
  on the eleven radius-16.5 samples in R^3 and five radius-4.5 ones (320).
- intersections, 25 outputs: the bases, offsets and tuples of
  `intersections` for planes of R^3 at r = 2, hyperplanes of R^4 at r = 3
  and 2-flats of R^4 at r = 2, 5 seeds each (15); the cross product of two
  samples of planes of R^3, 5 seeds (5); and 20 planted near-parallel plane
  pairs of R^3 at normal angles log-uniform in [1e-9, 1e-5], whose lines lie
  up to 2 / angle away, 5 seeds (5).
"""
from __future__ import annotations

import hashlib
import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from flatproc.closed_form import WindowDescriptor  # noqa: E402
from flatproc.derived_processes import (f_alpha, intersections, order_statistics,  # noqa: E402
                                        proximity)
from flatproc.flat_geometry import Subspace, complement_bases, haar_bases  # noqa: E402
from flatproc.measures import DirectionSet, GrassmannMeasure  # noqa: E402
from flatproc.simulator import (FlatProcessSpec, FlatSample, SrConstruction,  # noqa: E402
                                build_factorial_distribution, sample_cube_process,
                                sample_poisson, sample_sr_flats, sr_intensity)
from flatproc.stats_harness import (ReplicationPlan, factorial_moment_check,  # noqa: E402
                                    replicate)

DELTA = 1.0
# smallest and largest radius of the 20 seeded line samples in R^n: from a
# few lines (no screen) to a few thousand pairs (screened, several slabs)
LINE_RADII = {2: (2.0, 8.0), 3: (1.5, 6.0), 4: (1.2, 3.5), 5: (1.0, 2.6)}
# the two radii of the single and cross line samples in R^6-R^8: a few
# dozen pairs, and a few ten thousand
HIGH_LINE_RADII = {6: (1.2, 2.2), 7: (1.1, 1.9), 8: (1.0, 1.7)}
# master seeds of one, two and three 32-bit entropy words
STREAM_SEEDS = (0, 2**32 - 1, 2**32 + 5, 2**70 + 3)
CUBE_BOXES = ([(0, 1)], [(0, 1), (0, 1)], [(-2, 2), (0, 3)], [(0, 2), (-1, 1), (3, 4)])


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for arr in arrays:
        h.update(f"{arr.dtype.str}{arr.shape}".encode())
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def segment_digest(seg) -> str:
    return digest(seg.midpoints, seg.lengths, seg.directions, seg.pairs)


def three_draws(rng):
    """A fixed estimator reading three draws of different kinds."""
    return [rng.random(), rng.standard_normal(), float(rng.integers(1 << 40))]


def slabs(r: int):
    """Indicators of r disjoint vertical slabs of the unit square."""
    edges = np.linspace(0.0, 1.0, r + 1)
    return [lambda pts, lo=lo, hi=hi: (pts[:, 0] >= lo) & (pts[:, 0] < hi)
            for lo, hi in zip(edges[:-1], edges[1:])]


def stream_cases():
    """Replicated estimates and factorial moments drawn from `replicate`'s
    derived streams, and seeded cube samples."""
    plans = [(1500, seed, jobs) for seed in STREAM_SEEDS for jobs in (1, 2)]
    plans += [(reps, 2**32 + 5, jobs) for reps in (63, 64, 65, 1023, 1024, 1025)
              for jobs in (1, 3)]
    for reps, seed, jobs in plans:
        stats = replicate(ReplicationPlan(reps, seed), three_draws, jobs=jobs, keep_values=True)
        size = "" if reps == 1500 else f"-n{reps}"
        yield (f"replicate{size}-s{seed}-jobs{jobs}",
               digest(stats["values"], np.array(stats["mean"]), np.array(stats["variance"])))
    law = build_factorial_distribution(3)
    for r in (2, 3, 4):
        for seed in (41, 42):
            check = factorial_moment_check(
                lambda rng: sample_cube_process(2, law, [(0, 1), (0, 1)], rng),
                slabs(r), 1100, seed)
            yield (f"cube-moments-r{r}-s{seed}",
                   digest(np.array([check["empirical"], check["productOfMeans"], check["z"],
                                    check["exactZero"]], dtype=float)))
    for kappa in (2, 3, 5):
        law = build_factorial_distribution(kappa)
        for b, box in enumerate(CUBE_BOXES):
            for stationarize in (False, True):
                for seed in range(2):
                    points = sample_cube_process(len(box), law, box, [700 + kappa, b, seed],
                                                 stationarize=stationarize)
                    yield (f"cube-k{kappa}-box{b}-st{int(stationarize)}-s{seed}",
                           digest(points))


def isotropic(n: int, k: int) -> FlatProcessSpec:
    return FlatProcessSpec(n, k, 1.0, GrassmannMeasure.isotropic(n, k, 1.0))


def cases():
    """(case, sha256) for every case, in a fixed order."""
    for n, (lo, hi) in LINE_RADII.items():
        axes = GrassmannMeasure.discrete([(Subspace(row[None]), 1.0 / n) for row in np.eye(n)])
        for law, q in (("iso", GrassmannMeasure.isotropic(n, 1, 1.0)), ("axis", axes)):
            for seed in range(20):
                radius = lo + (hi - lo) * seed / 19
                sample = sample_poisson(FlatProcessSpec(n, 1, 1.0, q), radius, [n, seed])
                name = f"lines-R{n}-{law}-s{seed}"
                yield f"{name}-sample", digest(sample.bases, sample.offsets)
                if n >= 3:
                    yield f"{name}-proximity", segment_digest(proximity(sample, delta=DELTA))
    for n in range(2, 6):
        spec = FlatProcessSpec(n, 1, sr_intensity(n, 1), GrassmannMeasure.isotropic(n, 1, 1.0),
                               kind=SrConstruction(3, Subspace(np.eye(n)[1:])))
        for seed in range(10):
            sample = sample_sr_flats(spec, 3.0 if n <= 3 else 2.0, [100 + n, seed])
            yield f"sr-lines-R{n}-s{seed}-sample", digest(sample.bases, sample.offsets)
    for seed in range(11):
        sample = sample_poisson(isotropic(3, 1), 16.5, [200, seed])
        yield f"lines-R3-r16.5-s{seed}-proximity", segment_digest(proximity(sample, delta=DELTA))
    sample = sample_poisson(isotropic(3, 1), 32.0, [210, 0])
    yield "lines-R3-r32-proximity", segment_digest(proximity(sample, delta=DELTA))
    a, b = (sample_poisson(isotropic(3, 1), 24.0, [211, side]) for side in (0, 1))
    yield "lines-R3-r24-ab-proximity", segment_digest(proximity(a, b, delta=DELTA))
    yield "lines-R3-r24-ba-proximity", segment_digest(proximity(b, a, delta=DELTA))
    a, b = (sample_poisson(isotropic(4, 1), 2.5, [300, side]) for side in (0, 1))
    yield "lines-R4-cross-proximity", segment_digest(proximity(a, b, delta=DELTA))
    for n, radius in ((3, 8.5), (5, 2.5)):
        for seed in range(5):
            a, b = (sample_poisson(isotropic(n, 1), radius, [400 + n, seed, side])
                    for side in (0, 1))
            for label, pair in (("single", (a, None)), ("ab", (a, b)), ("ba", (b, a))):
                yield (f"lines-R{n}-r{radius}-s{seed}-{label}-proximity",
                       segment_digest(proximity(*pair, delta=DELTA)))
    for n, radii in HIGH_LINE_RADII.items():
        for radius in radii:
            for seed in range(3):
                a, b = (sample_poisson(isotropic(n, 1), radius, [600 + n, seed, side])
                        for side in (0, 1))
                for label, pair in (("single", (a, None)), ("ab", (a, b)), ("ba", (b, a))):
                    yield (f"lines-R{n}-r{radius}-s{seed}-{label}-proximity",
                           segment_digest(proximity(*pair, delta=DELTA)))
    for n, k1, k2 in ((4, 1, 2), (5, 2, 2), (5, 1, 3), (6, 2, 3), (7, 3, 3), (6, 2, 2)):
        for seed in range(10):
            a = sample_poisson(isotropic(n, k1), 2.5, [500 + n, k1, k2, seed, 0])
            b = None if k1 == k2 else sample_poisson(isotropic(n, k2), 2.5,
                                                     [500 + n, k1, k2, seed, 1])
            yield (f"flats-R{n}-k{k1}-k{k2}-s{seed}-proximity",
                   segment_digest(proximity(a, b, delta=1.5)))
            if b is not None:
                yield (f"flats-R{n}-k{k2}-k{k1}-s{seed}-ba-proximity",
                       segment_digest(proximity(b, a, delta=1.5)))
    planes = sample_poisson(isotropic(5, 2), 4.5, [520])
    yield "flats-R5-k2-k2-r4.5-proximity", segment_digest(proximity(planes, delta=DELTA))
    yield from stream_cases()
    yield from small_cases()
    yield from functional_cases()
    yield from intersection_cases()


def first_flats(sample, count: int):
    """The first `count` flats of a sample, as a sample of their own."""
    return FlatSample(sample.n, sample.k, sample.radius, sample.bases[:count],
                      sample.offsets[:count], sample.seed)


def small_cases():
    """Proximity of the few-line samples of small windows, and of samples
    next to the screen's and the small line path's pair thresholds."""
    cube_radius = math.sqrt(3.0) / 2.0 + DELTA / 2.0
    for seed in range(20):
        sample = sample_poisson(isotropic(3, 1), cube_radius, [700, seed])
        yield f"lines-R3-cube-s{seed}-proximity", segment_digest(proximity(sample, delta=DELTA))
    for n, radius in ((3, 5.0), (4, 2.6)):
        for seed in range(3):
            big, other = (sample_poisson(isotropic(n, 1), radius, [710 + n, seed, side])
                          for side in (0, 1))
            assert min(len(big), len(other)) >= 50
            b = first_flats(other, 24)
            for size in (49, 50):
                a = first_flats(big, size)
                for label, pair in (("single", (a, None)), ("ab", (a, b)), ("ba", (b, a))):
                    yield (f"lines-R{n}-first{size}-s{seed}-{label}-proximity",
                           segment_digest(proximity(*pair, delta=DELTA)))
    for seed in range(3):
        big, other = (sample_poisson(isotropic(3, 1), 2.5, [740, seed, side]) for side in (0, 1))
        assert min(len(big), len(other)) >= 10
        b = first_flats(other, 5)
        for size in (7, 8, 9, 10):
            a = first_flats(big, size)
            for label, pair in (("single", (a, None)), ("ab", (a, b)), ("ba", (b, a))):
                yield (f"lines-R3-first{size}-s{seed}-{label}-proximity",
                       segment_digest(proximity(*pair, delta=DELTA)))
    for n in (3, 4, 5):
        few = sample_poisson(isotropic(n, 1), 1.5, [720, n])
        assert len(few) >= 2
        for size in (0, 1):
            a = first_flats(few, size)
            for label, pair in (("single", (a, None)), ("ab", (a, few)), ("ba", (few, a))):
                yield (f"lines-R{n}-first{size}-{label}-proximity",
                       segment_digest(proximity(*pair, delta=DELTA)))
    planes = sample_poisson(isotropic(5, 2), 1.6, [730])
    empty = first_flats(planes, 0)
    yield "flats-R5-k2-empty-single-proximity", segment_digest(proximity(empty, delta=DELTA))
    yield "flats-R5-k2-empty-ab-proximity", segment_digest(proximity(empty, planes, delta=DELTA))


def functional_cases():
    """Length-power functionals and order statistics of R^3 line samples, on
    one ball and one box window each, over all directions and a double cap."""
    cap = DirectionSet.double_cap(np.array([0.0, 0.0, 1.0]), 0.5)
    samples = [(f"r16.5-s{seed}", sample_poisson(isotropic(3, 1), 16.5, [200, seed]))
               for seed in range(11)]
    samples += [(f"r4.5-s{seed}", sample_poisson(isotropic(3, 1), 4.5, [230, seed]))
                for seed in range(5)]
    for name, sample in samples:
        seg = proximity(sample, delta=DELTA)
        rho = sample.radius - DELTA / 2.0
        windows = (("ball", WindowDescriptor.ball(rho)),
                   ("box", WindowDescriptor.box([1.25 * rho, rho, 0.75 * rho])))
        for label, window in windows:
            for directions, direction_set in (("all", None), ("cap", cap)):
                case = f"functionals-R3-{name}-{label}-{directions}"
                for alpha in (0.0, 1.0, 2.0):
                    value = f_alpha(seg, alpha, window, direction_set)
                    yield f"{case}-F{alpha:g}", digest(np.array([value]))
                for m in (1, 3):
                    yield (f"{case}-min{m}",
                           digest(order_statistics(seg, 1.0, window, m, direction_set)))


def intersection_digest(inter) -> str:
    return digest(inter.bases, inter.offsets, inter.tuples)


def planted_near_parallel(pairs: int, seed: int) -> FlatSample:
    """Planes of R^3 in near-parallel pairs 2i, 2i + 1: normals at angles
    log-uniform in [1e-9, 1e-5], offsets uniform in [-1, 1] along them."""
    rng = np.random.default_rng([850, seed])
    bases, offsets = [], []
    for angle in 10.0 ** rng.uniform(-9.0, -5.0, pairs):
        normal, tilt = haar_bases(1, 3, 2, rng)[0]
        normals = np.array([normal, math.cos(angle) * normal + math.sin(angle) * tilt])
        bases.append(complement_bases(normals[:, None]))
        offsets.append(rng.uniform(-1.0, 1.0, (2, 1)) * normals)
    return FlatSample(3, 2, 1.0, np.concatenate(bases), np.concatenate(offsets), str(seed))


def intersection_cases():
    """Intersection flats of seeded samples, of one cross product of two
    samples, and of planted near-parallel plane pairs."""
    for n, k, r, radius in ((3, 2, 2, 10.0), (4, 3, 3, 6.0), (4, 2, 2, 2.5)):
        for seed in range(5):
            sample = sample_poisson(isotropic(n, k), radius, [800 + n, k, r, seed])
            yield (f"intersections-R{n}-k{k}-r{r}-s{seed}",
                   intersection_digest(intersections(sample, order=r)))
    for seed in range(5):
        a, b = (sample_poisson(isotropic(3, 2), 8.0, [830, seed, side]) for side in (0, 1))
        yield f"intersections-R3-k2-ab-s{seed}", intersection_digest(intersections([a, b]))
    for seed in range(5):
        yield (f"intersections-R3-near-parallel-s{seed}",
               intersection_digest(intersections(planted_near_parallel(20, seed), order=2)))


def main() -> int:
    for case, sha in cases():
        print(case, sha)
    return 0


if __name__ == "__main__":
    sys.exit(main())

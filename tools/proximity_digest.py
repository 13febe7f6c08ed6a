"""Digests of seeded samples and their proximity processes on a fixed case set.

Prints one line per case, `<case> <sha256>`, and exits 0 when every case
ran.  The hash covers the dtype, shape and bytes of each output array, so
two checkouts give the same line for a case exactly when their output is
byte-identical.  Compare a change with its parent by running the script in
both checkouts (each imports flatproc from its own `src`):

    python tools/proximity_digest.py > new.txt
    (cd ../parent && python tools/proximity_digest.py) > old.txt
    diff old.txt new.txt

The 479 cases:
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
- k >= 2, 60 outputs: `proximity` for (n, k1, k2) = (4,1,2), (5,2,2),
  (5,1,3), (6,2,3), (7,3,3), (6,2,2), 10 seeds each; one sample when
  k1 = k2, two otherwise.
"""
from __future__ import annotations

import hashlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from flatproc.derived_processes import proximity  # noqa: E402
from flatproc.flat_geometry import Subspace  # noqa: E402
from flatproc.measures import GrassmannMeasure  # noqa: E402
from flatproc.simulator import (FlatProcessSpec, SrConstruction,  # noqa: E402
                                sample_poisson, sample_sr_flats, sr_intensity)

DELTA = 1.0
# smallest and largest radius of the 20 seeded line samples in R^n: from a
# few lines (no screen) to a few thousand pairs (screened, several slabs)
LINE_RADII = {2: (2.0, 8.0), 3: (1.5, 6.0), 4: (1.2, 3.5), 5: (1.0, 2.6)}
# the two radii of the single and cross line samples in R^6-R^8: a few
# dozen pairs, and a few ten thousand
HIGH_LINE_RADII = {6: (1.2, 2.2), 7: (1.1, 1.9), 8: (1.0, 1.7)}


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for arr in arrays:
        h.update(f"{arr.dtype.str}{arr.shape}".encode())
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def segment_digest(seg) -> str:
    return digest(seg.midpoints, seg.lengths, seg.directions, seg.pairs)


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


def main() -> int:
    for case, sha in cases():
        print(case, sha)
    return 0


if __name__ == "__main__":
    sys.exit(main())

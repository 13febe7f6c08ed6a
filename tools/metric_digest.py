"""Digests of the metric and zonoid engines' outputs on a fixed case set.

Prints one line per case, `<case> <sha256>`, as `proximity_digest.py` does,
and exits 0.  A case whose call raises prints `<case> raised-<Exception>-<h>`
instead, h a short hash of the message, so that a change which makes a case
run, or stop running, or fail differently, shows as a differing line.  The
hash covers the dtype, shape and bytes of each output array.  Compare a
change with its parent by running the script in both checkouts (each imports
flatproc from its own `src`):

    python tools/metric_digest.py > new.txt
    (cd ../parent && python tools/metric_digest.py) > old.txt
    diff old.txt new.txt

The 349 cases:
- 272 distances: `bl_distance` and `prohorov_distance` on seeded supports of
  m = 2..18 points (the sphere-quotient table of random units in R^3),
  scaled by 1, 1e-4, 1e-8 and 1e-12, with probability weights and with
  unnormalized ones.
- 44 zonoid outputs: the atoms (bases and weights) of `mu_Q_r` and of
  `area_measure` for r = 2..n-1 on seeded even measures of n + 2 atoms in
  R^3 (5 seeds), R^4 (4) and R^5 (3).
- 18 merges: the `_merge` representatives and labels of seeded projector
  stacks with planted near pairs, (n, k) in {(3,1), (4,2), (5,3)}, 6 seeds.
- 15 stability reports: the entries of `stability_harness` for each case on
  the `flatproc stability` family (seed 0) at its default t values, at four
  t in [1e-4, 1e-2], and at t = 1e-6, 1e-8 and 1e-9 alone.
"""
from __future__ import annotations

import hashlib
import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from flatproc.flat_geometry import complement_bases, haar_bases  # noqa: E402
from flatproc.measure_metrics import (MetricSample, bl_distance,  # noqa: E402
                                      prohorov_distance, stability_harness)
from flatproc.measures import SphereMeasure  # noqa: E402
from flatproc.zonoid_engine import MERGE_TOL, _merge, area_measure, mu_Q_r  # noqa: E402

SCALES = (1.0, 1e-4, 1e-8, 1e-12)
STABILITY_CASES = ("area-measure", "hyperplane-intersection", "line-proximity")


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for arr in arrays:
        arr = np.asarray(arr)
        h.update(f"{arr.dtype.str}{arr.shape}".encode())
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def guarded(case: str, compute) -> tuple[str, str]:
    try:
        return case, digest(*compute())
    except Exception as exc:  # reported as a line, so both trees finish
        message = hashlib.sha256(str(exc).encode()).hexdigest()[:16]
        return case, f"raised-{type(exc).__name__}-{message}"


def even_measure(n: int, count: int, rng) -> SphereMeasure:
    units = rng.standard_normal((count, n))
    units /= np.linalg.norm(units, axis=1, keepdims=True)
    return SphereMeasure.atoms(n, list(zip(units, 0.2 + rng.random(count))))


def atom_arrays(pairs):
    """Stacked bases and weights of a list of (Subspace, weight)."""
    return (np.array([s.basis for s, _ in pairs]), np.array([w for _, w in pairs]))


def planted_projectors(n: int, k: int, rng) -> np.ndarray:
    """Projectors of 6 Haar k-planes and of copies turned by Frobenius
    distances 0.5, 0.6, 1.2 and 2 MERGE_TOL, shuffled."""
    out = []
    for b in haar_bases(6, n, k, rng):
        w = complement_bases(b[None])[0, 0]
        for d in (0.0, 0.5, 0.6, 1.2, 2.0):
            theta = math.asin(d * MERGE_TOL / math.sqrt(2.0))
            turned = b.copy()
            turned[0] = math.cos(theta) * b[0] + math.sin(theta) * w
            out.append(turned.T @ turned)
    return np.array(out)[rng.permutation(len(out))]


def stability_family(t_values, n: int = 3, seed: int = 0):
    """Base measure and contracting family of `flatproc stability`."""
    rng = np.random.default_rng(seed)
    units = [np.eye(n)[i] for i in range(n)]
    extra = rng.standard_normal(n)
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


def report_arrays(report):
    keys = ("t", "d_BL_lhs", "d_BL_rhs", "d_P_lhs", "d_P_rhs", "ratio", "exponent_estimate")
    return (np.array([[e[key] for key in keys] for e in report["entries"]]),)


def cases():
    """(case, sha256 or raised-<Exception>-<h>) for every case, in a fixed order."""
    for m in range(2, 19):
        rng = np.random.default_rng([600, m])
        units = rng.standard_normal((m, 3))
        units /= np.linalg.norm(units, axis=1, keepdims=True)
        table = MetricSample.from_sphere_pairs(units).dist
        mass_mu, mass_nu = rng.random(m) + 0.05, rng.random(m) + 0.05
        weights = {"prob": (mass_mu / mass_mu.sum(), mass_nu / mass_nu.sum()),
                   "mass": (mass_mu, mass_nu)}
        for scale in SCALES:
            sample = MetricSample(table * scale)
            for label, (mu, nu) in weights.items():
                for name, metric in (("bl", bl_distance), ("prohorov", prohorov_distance)):
                    yield guarded(f"{name}-m{m}-x{scale:g}-{label}",
                                  lambda: (metric(sample, mu, nu),))
    for n, seeds in ((3, 5), (4, 4), (5, 3)):
        for seed in range(seeds):
            q = even_measure(n, n + 2, np.random.default_rng([700, n, seed]))
            for r in range(2, n):
                yield guarded(f"mu_Q_r-R{n}-s{seed}-r{r}", lambda: atom_arrays(mu_Q_r(q, r).atoms))
                yield guarded(f"area_measure-R{n}-s{seed}-r{r}",
                              lambda: atom_arrays(area_measure(q, r).subspheres))
    for n, k in ((3, 1), (4, 2), (5, 3)):
        for seed in range(6):
            projectors = planted_projectors(n, k, np.random.default_rng([800, n, k, seed]))
            yield guarded(f"merge-R{n}-k{k}-s{seed}", lambda: _merge(projectors, MERGE_TOL))
    for case in STABILITY_CASES:
        for label, t_values in (("default", [0.2, 0.1, 0.05, 0.025]),
                                ("to-1e-4", [1e-2, 3e-3, 1e-3, 1e-4]),
                                ("at-1e-6", [1e-6]), ("at-1e-8", [1e-8]),
                                ("at-1e-9", [1e-9])):
            base, family = stability_family(t_values)
            yield guarded(f"stability-{case}-{label}", lambda: report_arrays(stability_harness(
                case, base, family, rho=0.02, upper=4.0, order=2)))


def main() -> int:
    for case, sha in cases():
        print(case, sha)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Digests of the metric, zonoid, closed-form and command-line outputs on a fixed case set.

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

The 608 cases:
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
- 102 closed-form outputs: the value and the standard error, as separate
  cases, of 51 fixed-seed calls at 2,000 samples.  `pair_integral` on
  isotropic, atomic and mixed line measures in R^4, each with no set, the
  full sphere, a double cap and a custom set equal to the cap;
  `asymptotic_covariance` on isotropic and atomic q with those sets and a
  cap-custom pair, over a ball and a box; `intersection_density` on
  isotropic, atomic and mixed planes of R^3 and three hyperplanes of R^4,
  with g None and a g; `integrate` on Grassmann (isotropic, atomic) and sphere
  (uniform, atoms, subspheres) measures; `subsphere_measure` of the full
  sphere, the cap and the custom set on a 3- and a 2-dimensional subspace.
- 32 view outputs, read through `Subspace` views of stacks checked once:
  criterion 3's comparison on seeded even measures of n + 2 atoms in R^3
  (3 seeds), R^4 (2) and R^5 (2) for r = 2..n-1 (the merged weights of
  `t_lift(mu_Q_r)` and of the `area_measure` subspheres times C(n - 1, r),
  and the area weights `same_span` matches to each lift atom); the value and
  the standard error of isotropic Grassmann `integrate` of a subspace
  determinant on G(5,2), G(4,2), G(3,1) and G(4,3) at two seeds; and
  `same_span` counts for Haar planes against copies turned by Frobenius
  distances tol (1 - 1e-6) and tol (1 + 1e-6) and against planes of another
  k or n, at four tolerances.  The group uses only names that predate the
  views, so the CI step can run it on the base commit.
- 113 complement outputs, every caller of `complement_bases`:
  `complement_bases` itself on 12 seeded unit rows (not orthonormal) for
  n = 2..6 and k = 0..n, its projectors and its bases as separate cases (50);
  `symmetrize_hyperplane_measure` of seeded atomic hyperplane measures in
  R^3..R^6 (4); `lower_bound_check` on even measures of n + 2 atoms, one
  of them twice so that some (n-1)-subsets are dependent, in R^3..R^6 at two
  seeds: the least cosine moment over the subsets' normals and the checks
  at 12 levels of rho (8); `subspace_determinant` of seeded Haar tuples
  whose dimensions sum to at least (r - 1) n, on 16 tuples each, for
  (n, dims) in {(3, 2+2), (4, 3+2), (4, 3+3), (4, 3+3+3), (5, 4+3),
  (5, 4+4+3), (6, 5+4)} (7); and `closed_form.hyperplane_intersection`
  (bases and weights) at gamma 0.5 and 2.5 for r = 2..n-1 on the zonoid
  group's measures (44).  The group uses only names that exist at its base
  commit, so the CI step can run it there too.
- 12 command-line outputs, the sorted-key `results` of `flatproc.cli.run` at
  `--jobs 1` and small sizes: `proximity` (the unit cube, and a ball with
  the axis law at alpha 1), `intersect`, `zonoid` (the axes of R^3, seeded
  lines of R^4 and, with `--hyperplanes`, seeded hyperplanes of R^4), `clt`,
  `weibull`, `appendix` with its cube checks, and `stability` for each case.
  `simulate` and `version` are left out: their results hold file paths or
  only the version.  The group calls nothing but `cli.run`, so the CI step
  can run it on the base commit too.
"""
from __future__ import annotations

import hashlib
import json
import math
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from flatproc import cli  # noqa: E402
from flatproc.closed_form import (WindowDescriptor, asymptotic_covariance,  # noqa: E402
                                  hyperplane_intersection, intersection_density,
                                  pair_integral)
from flatproc.flat_geometry import (Subspace, complement_bases, haar_bases,  # noqa: E402
                                    subset_indices, subspace_determinant)
from flatproc.measure_metrics import (MetricSample, bl_distance,  # noqa: E402
                                      prohorov_distance, stability_harness)
from flatproc.measures import (DirectionSet, GrassmannMeasure, SphereMeasure,  # noqa: E402
                               integrate, lower_bound_check, symmetrize_hyperplane_measure,
                               t_lift)
from flatproc.zonoid_engine import (MERGE_TOL, _merge, area_measure,  # noqa: E402
                                    merge_grassmann_atoms, mu_Q_r)

SCALES = (1.0, 1e-4, 1e-8, 1e-12)
CLOSED_FORM_SAMPLES = 2_000
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


def grassmann_atoms(n: int, k: int, count: int, rng) -> GrassmannMeasure:
    """Seeded atomic measure of `count` Haar k-planes with weights in [0.2, 1.2)."""
    return GrassmannMeasure.discrete([(Subspace(b), 0.2 + rng.random())
                                      for b in haar_bases(count, n, k, rng)])


def closed_form_calls():
    """(case, call) for the closed forms' fixed-seed cases; each call gives
    (value, standard error)."""
    n, samples = 4, CLOSED_FORM_SAMPLES
    rng = np.random.default_rng(900)
    axis = rng.standard_normal(n)
    axis /= np.linalg.norm(axis)
    sets = {"none": None, "full": DirectionSet.full_sphere(n),
            "cap": DirectionSet.double_cap(axis, 0.4),
            "custom": DirectionSet.custom(n, lambda u: np.abs(u @ axis) >= 0.4)}
    iso, atomic, other = (GrassmannMeasure.isotropic(n, 1, 1.5), grassmann_atoms(n, 1, 5, rng),
                          grassmann_atoms(n, 1, 4, rng))
    for law, (q1, q2) in (("isotropic", (iso, iso)), ("atomic", (atomic, other)),
                          ("mixed", (iso, atomic))):
        for name, dset in sets.items():
            yield (f"pair_integral-{law}-{name}",
                   lambda: pair_integral(q1, q2, dset, rng=910, samples=samples))
    windows = {"ball": WindowDescriptor.ball(1.0),
               "box": WindowDescriptor.box((1.0, 2.0, 0.5, 1.5))}
    pairs = [(name, dset, dset) for name, dset in sets.items()]
    pairs.append(("cap-custom", sets["cap"], sets["custom"]))
    for law, q in (("isotropic", iso), ("atomic", atomic)):
        for name, c_i, c_j in pairs:
            for shape, window in windows.items():
                yield (f"asymptotic_covariance-{law}-{name}-{shape}",
                       lambda: asymptotic_covariance(n, 1, 1.0, q, 1.0, 0.0, 1.0, window, c_i,
                                                     c_j, rng=911, samples=samples))
    # planes in R^3 meet in lines, three hyperplanes of R^4 too
    iso32, planes = GrassmannMeasure.isotropic(3, 2, 1.0), grassmann_atoms(3, 2, 4, rng)
    iso43, hyperplanes = GrassmannMeasure.isotropic(4, 3, 1.0), grassmann_atoms(4, 3, 3, rng)
    for law, qs in (("isotropic", [iso32, iso32]), ("atomic", [planes, planes]),
                    ("mixed", [iso32, planes]), ("mixed-r3", [iso43, hyperplanes, hyperplanes])):
        for name, g in (("none", None),
                        ("g", lambda sub: abs(float(sub.basis[0] @ axis[:sub.n])))):
            yield (f"intersection_density-{law}-{name}",
                   lambda: intersection_density(qs[0].n, [qs[0].k] * len(qs), [1.0] * len(qs), qs,
                                                g, rng=912, samples=samples))
    line, subs = Subspace(np.eye(n)[:1]), [Subspace(b) for b in haar_bases(2, n, 3, rng)]
    measures = {
        "grassmann-isotropic": iso, "grassmann-atomic": atomic,
        "sphere-uniform": SphereMeasure.uniform(n, 2.0),
        "sphere-atoms": SphereMeasure.atoms(n, [(s.basis[0], w) for s, w in atomic.atoms]),
        "sphere-subspheres": SphereMeasure.subsphere_mixture(
            n, [(subs[0], 0.5), (Subspace(subs[1].basis[:1]), 1.0),
                (Subspace(subs[1].basis[:2]), 0.25)])}
    for name, measure in measures.items():
        f = (lambda sub: subspace_determinant([line, sub])) if name.startswith("grassmann") \
            else (lambda u: np.abs(u @ axis) ** 1.5)
        yield f"integrate-{name}", lambda: integrate(measure, f, rng=913, samples=samples)
    for name in ("full", "cap", "custom"):
        for d, sub in ((3, subs[0]), (2, Subspace(subs[1].basis[:2]))):
            yield (f"subsphere_measure-{name}-d{d}",
                   lambda: sets[name].subsphere_measure(sub, rng=914, samples=samples))


def lift_against_area(q: SphereMeasure, r: int):
    """The lift-identity comparison of criterion 3 on the `subspheres` views:
    merged weights of t_lift(mu_Q_r), merged weights of the area measure's
    subspheres times C(n - 1, r), and for each lift atom the count and the
    weights of the area atoms of the same span."""
    lifted = merge_grassmann_atoms(list(t_lift(mu_Q_r(q, r)).subspheres))
    scale = math.comb(q.n - 1, r)
    area = merge_grassmann_atoms([(s, scale * w) for s, w in area_measure(q, r).subspheres])
    matched = [[w for s, w in area if s.same_span(sub, tol=1e-8)] for sub, _ in lifted]
    return (np.array([w for _, w in lifted]), np.array([w for _, w in area]),
            np.array([len(row) for row in matched]), np.array(sum(matched, [])))


def same_span_counts(n: int, k: int, rng) -> np.ndarray:
    """For each tolerance, how many of 6 Haar k-planes `same_span` matches
    with a copy turned by a Frobenius distance tol (1 - 1e-6) and
    tol (1 + 1e-6), both ways, and with planes of another n or k."""
    tols = (1e-10, 1e-8, 1e-6, 1e-3)
    counts = np.zeros((len(tols), 4), dtype=np.int64)
    for b in haar_bases(6, n, k, rng):
        w = complement_bases(b[None])[0, 0]
        sub = Subspace(b)
        for i, tol in enumerate(tols):
            for j, d in enumerate((tol * (1 - 1e-6), tol * (1 + 1e-6))):
                theta = math.asin(d / math.sqrt(2.0))
                turned = b.copy()
                turned[0] = math.cos(theta) * b[0] + math.sin(theta) * w
                other = Subspace(turned)
                counts[i, j] += sub.same_span(other, tol) + other.same_span(sub, tol)
            counts[i, 2] += sub.same_span(Subspace(b[:k - 1]), tol) if k > 1 else 0
            counts[i, 3] += sub.same_span(Subspace(np.hstack([b, np.zeros((k, 1))])), tol)
    return counts


def views_calls():
    """(case, call) for the outputs read through `Subspace` views: `atoms`
    and `subspheres` of seeded zonoid outputs, isotropic Grassmann
    `integrate` (value and standard error), and `same_span` counts."""
    for n, seeds in ((3, 3), (4, 2), (5, 2)):
        for seed in range(seeds):
            q = even_measure(n, n + 2, np.random.default_rng([1000, n, seed]))
            for r in range(2, n):
                yield f"views-lift-R{n}-s{seed}-r{r}", lambda: lift_against_area(q, r)
    for n, k in ((5, 2), (4, 2), (3, 1), (4, 3)):
        e0 = Subspace(np.eye(n)[:n - k])
        for seed in (920, 921):
            call = lambda: integrate(GrassmannMeasure.isotropic(n, k, 1.5),
                                     lambda sub: subspace_determinant([e0, sub]), rng=seed,
                                     samples=CLOSED_FORM_SAMPLES)
            for part, index in (("value", 0), ("se", 1)):
                yield f"views-integrate-R{n}-k{k}-s{seed}-{part}", lambda: (call()[index],)
    for n, k in ((3, 1), (4, 2), (5, 3)):
        yield (f"views-same_span-R{n}-k{k}",
               lambda: (same_span_counts(n, k, np.random.default_rng([1100, n, k])),))


def least_facet_moment(mu: SphereMeasure) -> float:
    """Least cosine moment of an atomic measure over the normals of its
    (n-1)-subsets, the value `lower_bound_check` compares with rho."""
    stacks = mu.units[subset_indices(len(mu.units), mu.n - 1)]
    return float(mu.cosine_moment(complement_bases(stacks)[:, 0]).min())


def complement_projectors(bases: np.ndarray) -> np.ndarray:
    comps = complement_bases(bases)
    return np.swapaxes(comps, 1, 2) @ comps


def complement_calls():
    """(case, call) for every caller of `complement_bases`."""
    for n in range(2, 7):
        for k in range(n + 1):
            rows = np.random.default_rng([1200, n, k]).standard_normal((12, k, n))
            rows /= np.linalg.norm(rows, axis=2, keepdims=True)
            yield (f"complement_bases-R{n}-k{k}-projectors",
                   lambda: (complement_projectors(rows),))
            yield f"complement_bases-R{n}-k{k}-bases", lambda: (complement_bases(rows),)
    for n in range(3, 7):
        hyperplanes = grassmann_atoms(n, n - 1, 6, np.random.default_rng([1210, n]))

        def normals():
            mu = symmetrize_hyperplane_measure(hyperplanes)
            return mu.units, mu.weights
        yield f"symmetrize_hyperplane_measure-R{n}", normals
    for n in range(3, 7):
        for seed in range(2):
            rng = np.random.default_rng([1220, n, seed])
            units = rng.standard_normal((n + 1, n))
            units /= np.linalg.norm(units, axis=1, keepdims=True)
            mu = SphereMeasure.atoms(n, list(zip(np.vstack([units, -units[:1]]),
                                                 0.2 + rng.random(n + 2))))

            def checks():
                least = least_facet_moment(mu)
                rhos = [least * f for f in (0.0, 0.5, 0.9, 0.99, 1.0 - 1e-9, 1.0, 1.0 + 1e-9)]
                rhos += [least + d for d in (1e-6 - 1e-9, 1e-6, 1e-6 + 1e-9, 0.01, 1.0)]
                return np.array([least]), np.array([lower_bound_check(mu, r) for r in rhos])
            yield f"lower_bound_check-R{n}-s{seed}", checks
    for n, dims in ((3, (2, 2)), (4, (3, 2)), (4, (3, 3)), (4, (3, 3, 3)), (5, (4, 3)),
                    (5, (4, 4, 3)), (6, (5, 4))):
        rng = np.random.default_rng([1230, n, *dims])
        rows = [[Subspace(haar_bases(1, n, k, rng)[0]) for k in dims] for _ in range(16)]
        yield (f"subspace_determinant-R{n}-d{'+'.join(map(str, dims))}",
               lambda: (np.array([subspace_determinant(row) for row in rows]),))
    for n, seeds in ((3, 5), (4, 4), (5, 3)):
        for seed in range(seeds):
            q = even_measure(n, n + 2, np.random.default_rng([700, n, seed]))
            for gamma in (0.5, 2.5):
                for r in range(2, n):
                    yield (f"hyperplane_intersection-R{n}-s{seed}-g{gamma:g}-r{r}",
                           lambda: atom_arrays(hyperplane_intersection(n, gamma, q, r).atoms))


def cli_results(argv: list[str], out: Path):
    """The sorted-key `results` of `flatproc <argv> --jobs 1` as JSON bytes;
    a run that writes no summary raises."""
    code = cli.run([*argv, "--jobs", "1", "--out", str(out)])
    if code not in (0, 2):
        raise RuntimeError(f"flatproc {' '.join(argv)} exited {code}")
    text = json.dumps(json.loads(out.read_text())["results"], sort_keys=True)
    return (np.frombuffer(text.encode(), dtype=np.uint8),)


def atom_file(path: Path, n: int, k: int, count: int, rng) -> str:
    """A directional distribution file of `count` seeded k-planes of R^n,
    each written as k Gaussian rows that the reader orthonormalizes."""
    rows = [" ".join(map(repr, [0.2 + rng.random(), *rng.standard_normal(k * n).tolist()]))
            for _ in range(count)]
    path.write_text("\n".join([f"{n} {k}", *rows]) + "\n")
    return str(path)


def cli_calls(tmp: Path):
    """(case, call) for every command but `simulate` and `version`."""
    rng = np.random.default_rng(1300)
    lines = atom_file(tmp / "lines.txt", 4, 1, 6, rng)
    hyperplanes = atom_file(tmp / "hyperplanes.txt", 4, 3, 6, rng)
    runs = {"proximity-cube": ["proximity", "--reps", "200", "--seed", "1"],
            "proximity-ball-axes": ["proximity", "--window", "ball:2", "--q", "axes",
                                    "--alpha", "1", "--reps", "100", "--seed", "2"],
            "intersect": ["intersect", "--reps", "100", "--mc-samples", "500", "--seed", "3"],
            "zonoid-axes-R3": ["zonoid", "--seed", "0"],
            "zonoid-lines-R4": ["zonoid", "--n", "4", "--q", lines, "--gamma", "2.5",
                                "--seed", "0"],
            "zonoid-hyperplanes-R4": ["zonoid", "--n", "4", "--q", hyperplanes,
                                      "--hyperplanes", "--seed", "0"],
            "clt": ["clt", "--rho", "1", "2", "--reps", "60", "--seed", "2"],
            "weibull": ["weibull", "--rho", "2", "--reps", "60", "--seed", "4"],
            "appendix": ["appendix", "--kappa", "3", "--cubes", "200", "--seed", "5"]}
    runs.update({f"stability-{case}": ["stability", "--case", case, "--seed", "0"]
                 for case in STABILITY_CASES})
    for case, argv in runs.items():
        yield f"cli-{case}", lambda: cli_results(argv, tmp / "out.json")


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
    for case, call in closed_form_calls():
        for part, index in (("value", 0), ("se", 1)):
            yield guarded(f"{case}-{part}", lambda: (call()[index],))
    for case, call in views_calls():
        yield guarded(case, call)
    for case, call in complement_calls():
        yield guarded(case, call)
    with tempfile.TemporaryDirectory() as tmp:
        for case, call in cli_calls(Path(tmp)):
            yield guarded(case, call)


def main() -> int:
    for case, sha in cases():
        print(case, sha)
    return 0


if __name__ == "__main__":
    sys.exit(main())

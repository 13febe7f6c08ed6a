"""The three benchmark workloads.

Each workload builds its inputs from the run seed (`setup`), then runs a
fixed check list (`steps`): the timed verdict.  Every call into flatproc
goes through `ctx.L`, so a traced run wraps each call in a span.  Units of
work (one replication, one exact evaluation) are timed through
`ctx.unit`.  `oracles` recompute outputs by independent methods, outside
the timed region.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
from types import SimpleNamespace
from time import perf_counter

import numpy as np

from flatproc import constants
from flatproc._rng import replication_stream
from flatproc.closed_form import WindowDescriptor
from flatproc.flat_geometry import DegeneratePairError, Subspace
from flatproc.measure_metrics import PROHOROV_TOL
from flatproc.measures import DirectionSet, GrassmannMeasure, SphereMeasure
from flatproc.simulator import (FlatProcessSpec, SrConstruction,
                                build_factorial_distribution, sr_intensity)
from flatproc.stats_harness import ReplicationPlan

from .gates import (BL_ORACLE_TOL, IDENTITY_TOL, Gates, anchored_determinants,
                    bl_distance_highs, prohorov_oracle)
from .layers import BL_SIZES, METRIC_SIZES, PROHOROV_SIZES

DELTA = 1.0


class Context:
    """Layer access, unit timing and speed readings for one verdict.

    In a traced verdict each speed reading runs in a span of its own,
    `speed.read`, so that its time is no layer's self time.
    """

    def __init__(self, layers, speed, tracer=None) -> None:
        self.L = layers
        self.speed = speed
        self.tracer = tracer
        self.unit_times: list[tuple[float, float]] = []   # (start, end)

    def read_speed(self, due_only: bool = False) -> None:
        """A speed reading now, or only when one is due."""
        if due_only and not self.speed.due():
            return
        if self.tracer is None:
            self.speed.read()
        else:
            self.tracer.call("speed.read", self.speed.read)

    def unit(self, fn):
        """fn, timed as one unit of work on every call, after a speed
        reading when one is due."""
        times, tracer = self.unit_times, self.tracer

        def timed(*args, **kwargs):
            self.read_speed(due_only=True)
            start = perf_counter()
            if tracer is None:
                out = fn(*args, **kwargs)
            else:
                out = tracer.call("bench.unit", fn, *args, **kwargs)
            times.append((start, perf_counter()))
            return out
        return timed


def master_seed(seed: int, tag: int) -> int:
    """Master seed of one replication plan, derived from the run seed."""
    return int(np.random.SeedSequence([seed, tag]).generate_state(1)[0])


# Samples that feed a 3-standard-error gate (replications, Monte-Carlo
# targets, the CLI's z-gated proximity check) draw from fixed master seeds,
# as the acceptance suite's statistical criteria do.  Each such gate fails a
# correct program about 0.3% of the time, more for skewed counts on small
# budgets: drawn afresh from every run seed, the ten z-gates of the three
# workloads would fail some run in most sets of seventy.  Every other input
# (identity cases, metric supports, unchecked replications, oracle picks)
# comes from the run seed.
STAT_SEED = 2024


def stat_seed(tag: int) -> int:
    """Master seed of one z-gated sample, independent of the run seed."""
    return master_seed(STAT_SEED, tag)


def run_cli(ctx: Context, argv: list[str]) -> tuple[int, dict | None]:
    """One in-process CLI call; returns the exit code and the parsed summary."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = ctx.L.cli_run(argv)
    text = out.getvalue()
    return code, (json.loads(text) if text.strip() else None)


def _replication_stats(stats: dict) -> tuple[np.ndarray, np.ndarray]:
    return np.atleast_1d(stats["mean"]), np.atleast_1d(stats["standardError"])


class LinesLargeWindow:
    """Isotropic Poisson lines in R^3 in the ball of radius 16."""

    name = "lines-large-window"

    def __init__(self, seed: int) -> None:
        self.seed = seed
        # 100 replications, so that the 90th percentile of unit times has
        # ten units beyond it within one verdict
        self.reps = 100
        self.cli_reps = 200

    def setup(self, L) -> SimpleNamespace:
        ns = SimpleNamespace()
        ns.q = GrassmannMeasure.isotropic(3, 1, 1.0)
        ns.spec = FlatProcessSpec(3, 1, 1.0, ns.q)
        ns.window = WindowDescriptor.ball(16.0)
        ns.radius = ns.window.circumradius() + DELTA / 2.0
        ns.plan = ReplicationPlan(self.reps, stat_seed(1), name=self.name)
        ns.cli_argv = ["proximity", "--n", "3", "--k", "1", "--q", "isotropic",
                       "--window", "ball:4", "--reps", str(self.cli_reps),
                       "--seed", str(stat_seed(2)), "--jobs", "1"]
        return ns

    def steps(self):
        return [("replications", self.replications), ("cli", self.cli)]

    def replications(self, ctx: Context, ns, gates: Gates) -> None:
        L = ctx.L
        f0_target, _ = L.mean_F_alpha(3, 1, 1.0, ns.q, DELTA, 0.0, ns.window)
        f1_target, _ = L.mean_F_alpha(3, 1, 1.0, ns.q, DELTA, 1.0, ns.window)

        def estimator(rng):
            sample = L.sample_poisson(ns.spec, ns.radius, rng)
            seg = L.proximity(sample, delta=DELTA)
            return [L.f_alpha(seg, 0.0, ns.window), L.f_alpha(seg, 1.0, ns.window),
                    L.order_statistics(seg, 1.0, ns.window, 1)[0]]

        stats = L.replicate(ns.plan, ctx.unit(estimator), jobs=1, keep_values=True)
        mean, se = _replication_stats(stats)
        gates.z("F0", mean[0], se[0], f0_target)
        gates.z("F1", mean[1], se[1], f1_target)
        shortest = stats["values"][:, 2]
        gates.check("every window has a segment", bool(np.all(np.isfinite(shortest))),
                    float(shortest.max()))

    def cli(self, ctx: Context, ns, gates: Gates) -> None:
        code, summary = run_cli(ctx, ns.cli_argv)
        gates.check("cli proximity exit 0", code == 0,
                    {"code": code, "z": summary and summary["results"]["z"]})

    def oracles(self, ctx: Context, ns, gates: Gates) -> None:
        """The window-radius rule makes the enumeration exact: the segment
        count of one replication, picked by the run seed, equals a
        brute-force count of the line pairs whose closest points lie within
        delta."""
        L = ctx.L
        sample = L.sample_poisson(ns.spec, ns.radius,
                                  replication_stream(ns.plan.master_seed, self.seed % self.reps))
        seg = L.proximity(sample, delta=DELTA)
        u = sample.bases[:, 0, :]
        a = sample.offsets
        i, j = np.triu_indices(len(sample), k=1)
        cross = np.cross(u[i], u[j])
        norm = np.linalg.norm(cross, axis=1)
        ok = norm > 1e-10
        gap = np.abs(np.einsum("mn,mn->m", a[i][ok] - a[j][ok], cross[ok])) / norm[ok]
        expected = int(np.count_nonzero((gap > 1e-12) & (gap <= DELTA)))
        gates.check("oracle.line segment count", expected == len(seg),
                    {"proximity": len(seg), "brute_force": expected})


class SmallWindowReplications:
    """Thousands of cheap replications in small windows."""

    name = "small-window-replications"

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.cube_reps = 3000
        self.clt_reps = {2.0: 500, 4.0: 250}
        self.moment_reps = 800
        self.sr_reps = 100
        self.q0_draws = 20_000

    def setup(self, L) -> SimpleNamespace:
        ns = SimpleNamespace()
        ns.q = GrassmannMeasure.isotropic(3, 1, 1.0)
        ns.spec = FlatProcessSpec(3, 1, 1.0, ns.q)
        ns.cube = WindowDescriptor.unit_cube(3)
        ns.cube_radius = ns.cube.circumradius() + DELTA / 2.0
        ns.cube_plan = ReplicationPlan(self.cube_reps, stat_seed(11))
        ns.balls = {rho: WindowDescriptor.ball(1.0).rescaled(rho) for rho in self.clt_reps}
        ns.clt_plans = {rho: ReplicationPlan(reps, master_seed(self.seed, 12 + int(rho)))
                        for rho, reps in self.clt_reps.items()}
        ns.count_law = build_factorial_distribution(3)
        ns.slabs = {r: _slab_indicators(r) for r in (2, 3, 4)}
        ns.moment_seeds = {r: stat_seed(20 + r) for r in (2, 3, 4)}
        ns.anchor = Subspace(np.eye(3)[1:])
        ns.sr_spec = FlatProcessSpec(3, 1, sr_intensity(3, 1), ns.q,
                                     kind=SrConstruction(3, ns.anchor))
        ns.sr_radius = 4.0
        ns.sr_plan = ReplicationPlan(self.sr_reps, master_seed(self.seed, 30))
        ns.cli_argv = ["appendix", "--kappa", "3", "--seed",
                       str(master_seed(self.seed, 31)), "--jobs", "1"]
        return ns

    def steps(self):
        return [("unit-cube", self.unit_cube), ("clt", self.clt),
                ("cube-moments", self.cube_moments), ("anchored", self.anchored),
                ("cli", self.cli)]

    def _f0_estimator(self, ctx, ns, window, radius):
        L = ctx.L

        def estimator(rng):
            sample = L.sample_poisson(ns.spec, radius, rng)
            return L.f_alpha(L.proximity(sample, delta=DELTA), 0.0, window)
        return ctx.unit(estimator)

    def unit_cube(self, ctx: Context, ns, gates: Gates) -> None:
        L = ctx.L
        target, _ = L.mean_F_alpha(3, 1, 1.0, ns.q, DELTA, 0.0, ns.cube)
        stats = L.replicate(ns.cube_plan,
                            self._f0_estimator(ctx, ns, ns.cube, ns.cube_radius), jobs=1)
        gates.z("unit cube F0 vs pi/4", stats["mean"], stats["standardError"], target)

    def clt(self, ctx: Context, ns, gates: Gates) -> None:
        L = ctx.L
        values = {}
        for rho, window in ns.balls.items():
            radius = window.circumradius() + DELTA / 2.0
            stats = L.replicate(ns.clt_plans[rho],
                                self._f0_estimator(ctx, ns, window, radius),
                                jobs=1, keep_values=True)
            values[rho] = stats["values"]
        # reported, not gated: the repository's CLT gates need rho up to 8
        report = L.clt_diagnostics(values, 3, 1)
        ks = [row["ks_normal"] for row in report["scales"]]
        gates.check("clt diagnostics finite", all(math.isfinite(k) for k in ks), ks)

    def cube_moments(self, ctx: Context, ns, gates: Gates) -> None:
        L = ctx.L
        one_cube = ctx.unit(
            lambda rng: L.sample_cube_process(2, ns.count_law, [(0, 1), (0, 1)], rng))
        for r in (2, 3):
            check = L.factorial_moment_check(one_cube, ns.slabs[r], self.moment_reps,
                                             ns.moment_seeds[r])
            gates.check(f"order-{r} moment z", abs(check["z"]) < 3.0, check["z"])
        check = L.factorial_moment_check(one_cube, ns.slabs[4], self.moment_reps,
                                         ns.moment_seeds[4])
        gates.check("no same-cube 4-tuples", check["exactZero"], check["empirical"])

    def anchored(self, ctx: Context, ns, gates: Gates) -> None:
        L = ctx.L
        sampler = ctx.unit(
            lambda rng: float(len(L.sample_sr_flats(ns.sr_spec, ns.sr_radius, rng))))
        stats = L.replicate(ns.sr_plan, sampler, jobs=1, keep_values=True)
        gates.check("every anchored window receives flats",
                    bool(np.all(stats["values"] > 0)), stats["mean"])

    def cli(self, ctx: Context, ns, gates: Gates) -> None:
        code, summary = run_cli(ctx, ns.cli_argv)
        gates.check("cli appendix exit 0", code == 0,
                    {"code": code, "momentErrors": summary and summary["results"]["momentErrors"]})

    def oracles(self, ctx: Context, ns, gates: Gates) -> None:
        """The anchored directional law has density proportional to [E0, L]
        against Haar measure; for lines in R^3, [E0, L] is uniform on [0, 1]
        under Haar, so its mean under the anchored law is (1/3)/(1/2) = 2/3."""
        rng = np.random.default_rng(stat_seed(32))
        bases = ctx.L.sample_q0_bases(ns.anchor, 3, 1, self.q0_draws, rng)
        dets = anchored_determinants(ns.anchor.basis, bases)
        gates.z("oracle.anchored directions mean [E0,L] = 2/3", float(dets.mean()),
                float(dets.std(ddof=1) / math.sqrt(dets.size)), 2.0 / 3.0)


def _slab_indicators(r: int):
    edges = np.linspace(0.0, 1.0, r + 1)

    def make(lo, hi):
        return lambda pts: (pts[:, 0] >= lo) & (pts[:, 0] < hi)
    return [make(edges[i], edges[i + 1]) for i in range(r)]


def _random_line_distribution(n, count, rng):
    units = rng.standard_normal((count, n))
    units /= np.linalg.norm(units, axis=1, keepdims=True)
    weights = rng.random(count) + 0.2
    weights /= weights.sum()
    return GrassmannMeasure.discrete(
        [(Subspace(units[i:i + 1]), weights[i]) for i in range(count)])


def _random_even_measure(n, count, rng, mass=None):
    units = rng.standard_normal((count, n))
    units /= np.linalg.norm(units, axis=1, keepdims=True)
    weights = rng.random(count) + 0.2
    if mass is not None:
        weights *= mass / weights.sum()
    return SphereMeasure.atoms(n, list(zip(units, weights)))


def _sphere_pair_table(units: np.ndarray) -> np.ndarray:
    """Quotient geodesic metric arccos|<u, v>| on antipodal pairs."""
    dist = np.arccos(np.clip(np.abs(units @ units.T), 0.0, 1.0))
    np.fill_diagonal(dist, 0.0)
    return 0.5 * (dist + dist.T)


class GenericFlatsAndMetrics:
    """k >= 2 flats, Monte-Carlo closed forms, zonoid identities and the
    exact metric engine."""

    name = "generic-flats-and-metrics"

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.flat_reps = 120
        self.plane_reps = 40
        self.mc_samples = 2000
        self.metric_sizes = METRIC_SIZES
        self.oracle_pairs = 60

    def setup(self, L) -> SimpleNamespace:
        rng = np.random.default_rng(master_seed(self.seed, 40))
        ns = SimpleNamespace()
        ns.q52 = GrassmannMeasure.isotropic(5, 2, 1.0)
        ns.spec52 = FlatProcessSpec(5, 2, 1.0, ns.q52)
        ns.ball = WindowDescriptor.ball(1.0)
        ns.ball_radius = ns.ball.circumradius() + DELTA / 2.0
        ns.cap = DirectionSet.double_cap(np.eye(5)[0], 0.5)
        ns.flat_plan = ReplicationPlan(self.flat_reps, stat_seed(41))
        ns.q32 = GrassmannMeasure.isotropic(3, 2, 1.0)
        ns.spec32 = FlatProcessSpec(3, 2, 1.0, ns.q32)
        ns.plane_radius = 3.0
        ns.plane_plan = ReplicationPlan(self.plane_reps, stat_seed(42))
        ns.e0 = Subspace(np.eye(5)[:3])
        ns.mc_seeds = {tag: stat_seed(43 + i)
                       for i, tag in enumerate(("cap", "density", "integrate"))}
        # zonoid identity cases of acceptance criteria 2-4
        ns.line_cases = [(n, _random_line_distribution(n, n + 2, rng),
                          0.5 + rng.random(), 0.5 + rng.random())
                         for n in (3, 4, 5) for _ in range(7 if n < 5 else 6)]
        ns.lift_cases = []
        for n in (3, 4, 5):
            for _ in range(4 if n == 3 else 3):
                gamma = 0.5 + rng.random()
                ns.lift_cases.append((n, gamma, _random_even_measure(n, n + 2, rng, mass=1.0)))
        # criterion 4 runs more cases in R^4 and R^5 than the acceptance
        # suite (17/17/16): their times form nearly seed-independent blocks
        # (~6 ms and 20-35 ms), and these counts put the median unit inside
        # the first block and the 90th percentile in the flat lower part of
        # the second, rather than at an edge between unit kinds that moves
        # with the seed
        ns.volume_cases = [_random_even_measure(n, n + 2, rng)
                           for n, count in ((3, 17), (4, 80), (5, 25)) for _ in range(count)]
        # seeded supports on the sphere quotient, one pair of weights each
        ns.metric_pairs = {}
        for m in self.metric_sizes:
            units = rng.standard_normal((m, 3))
            units /= np.linalg.norm(units, axis=1, keepdims=True)
            mu, nu = rng.random(m) + 0.05, rng.random(m) + 0.05
            ns.metric_pairs[m] = (L.metric_sample(_sphere_pair_table(units)),
                                  mu / mu.sum(), nu / nu.sum())
        # criterion 8: two-point supports, metric axioms, a contracting family
        ns.two_point = [0.05 + 2.4 * rng.random() for _ in range(20)]
        ns.two_point_tables = [L.metric_sample(np.array([[0.0, r], [r, 0.0]]))
                               for r in ns.two_point]
        ns.triples = []
        for _ in range(5):
            pts = rng.standard_normal((5, 3))
            table = L.metric_sample(np.linalg.norm(pts[:, None] - pts[None, :], axis=2))
            ns.triples.append((table, [rng.random(5) for _ in range(3)]))
        ns.stability = _contracting_family(rng)
        ns.cli_argv = ["stability", "--case", "area-measure", "--seed",
                       str(master_seed(self.seed, 47)), "--jobs", "1"]
        return ns

    def steps(self):
        return [("two-flats", self.two_flats), ("plane-intersections", self.planes),
                ("grassmann-integral", self.grassmann_integral),
                ("zonoid-identities", self.zonoid_identities),
                ("metric-distances", self.metric_distances),
                ("metric-stability", self.metric_stability), ("cli", self.cli)]

    def two_flats(self, ctx: Context, ns, gates: Gates) -> None:
        L = ctx.L
        exact, _ = L.mean_F_alpha(5, 2, 1.0, ns.q52, DELTA, 0.0, ns.ball)
        capped, capped_se = ctx.unit(L.mean_F_alpha)(
            5, 2, 1.0, ns.q52, DELTA, 0.0, ns.ball, ns.cap,
            rng=ns.mc_seeds["cap"], samples=self.mc_samples)

        def estimator(rng):
            seg = L.proximity(L.sample_poisson(ns.spec52, ns.ball_radius, rng), delta=DELTA)
            return [L.f_alpha(seg, 0.0, ns.ball), L.f_alpha(seg, 0.0, ns.ball, ns.cap)]

        stats = L.replicate(ns.flat_plan, ctx.unit(estimator), jobs=1)
        mean, se = _replication_stats(stats)
        gates.z("2-flats F0 vs exact", mean[0], se[0], exact)
        gates.z("2-flats F0 in double cap vs Monte Carlo", mean[1], se[1], capped, capped_se)

    def planes(self, ctx: Context, ns, gates: Gates) -> None:
        L = ctx.L
        density, density_se = ctx.unit(L.intersection_density)(
            3, [2, 2], [1.0, 1.0], [ns.q32, ns.q32], same_process=True,
            rng=ns.mc_seeds["density"], samples=self.mc_samples)
        area = constants.ball_volume(2) * ns.plane_radius ** 2

        def estimator(rng):
            inter = L.intersections(L.sample_poisson(ns.spec32, ns.plane_radius, rng), order=2)
            return float(sum(1 for flat in inter.flats
                             if np.linalg.norm(flat.offset) <= ns.plane_radius))

        stats = L.replicate(ns.plane_plan, ctx.unit(estimator), jobs=1)
        gates.z("plane intersection lines vs density", stats["mean"], stats["standardError"],
                density * area, density_se * area)

    def grassmann_integral(self, ctx: Context, ns, gates: Gates) -> None:
        from flatproc.flat_geometry import subspace_determinant

        value, se = ctx.unit(ctx.L.integrate)(
            ns.q52, lambda sub: subspace_determinant([ns.e0, sub]),
            rng=ns.mc_seeds["integrate"], samples=self.mc_samples)
        gates.z("integral of [E0, L] over G(5,2) vs c(5,3,2) = 1/4", value, se, 0.25)

    def zonoid_identities(self, ctx: Context, ns, gates: Gates) -> None:
        L = ctx.L

        def line_case(n, q, gamma, delta):
            lhs = L.proximity_intensity(n, 1, gamma, q, delta)
            zono = L.from_measure(L.symmetrize_line_measure(q))
            rhs = gamma ** 2 * constants.ball_volume(n - 2) * delta ** (n - 2) \
                * L.intrinsic_volume(zono, 2)
            return abs(lhs - rhs)

        def lift_case(n, gamma, even):
            worst, matched = 0.0, True
            scaled = even.scaled(gamma)
            for r in range(2, n):
                lifted = L.t_lift(L.hyperplane_intersection(n, gamma, even, r))
                target = L.area_measure(scaled, r)
                scale = math.comb(n - 1, r)
                lift_atoms = L.merge_grassmann_atoms(list(lifted.subspheres))
                area_atoms = L.merge_grassmann_atoms(
                    [(s, scale * w) for s, w in target.subspheres])
                matched &= len(lift_atoms) == len(area_atoms)
                for sub, weight in lift_atoms:
                    match = [w for s, w in area_atoms if s.same_span(sub, tol=1e-8)]
                    matched &= bool(match)
                    worst = max(worst, abs(weight - match[0]) if match else math.inf)
            return worst if matched else math.inf

        def volume_case(q):
            n, worst = q.n, 0.0
            zono = L.from_measure(q)
            for m in range(2, n):
                mixture = L.area_measure(q, m)
                total = sum(w * constants.sphere_surface(s.k) for s, w in mixture.subspheres)
                lhs = math.comb(n, m) / (n * constants.ball_volume(n - m)) * total
                worst = max(worst, abs(lhs - L.intrinsic_volume(zono, m)))
            return worst

        for label, case, args in (("zonoid identity (criterion 2)", line_case, ns.line_cases),
                                  ("lift identity (criterion 3)", lift_case, ns.lift_cases),
                                  ("volume relation (criterion 4)", volume_case,
                                   [(q,) for q in ns.volume_cases])):
            timed = ctx.unit(case)
            worst = max(timed(*a) for a in args)
            gates.check(label, worst <= IDENTITY_TOL, worst)

    def metric_distances(self, ctx: Context, ns, gates: Gates) -> None:
        L = ctx.L
        ns.distances = {}
        for m, (table, mu, nu) in ns.metric_pairs.items():
            bl = ctx.unit(L.bl_distance)(table, mu, nu) if m in BL_SIZES else None
            pr = ctx.unit(L.prohorov_distance)(table, mu, nu) if m in PROHOROV_SIZES else None
            ns.distances[m] = (bl, pr)
            # probability measures: 0 < BL <= 2 and 0 < Prohorov <= 1
            gates.check(f"m={m} distances in range",
                        (bl is None or 0.0 < bl <= 2.0) and (pr is None or 0.0 < pr <= 1.0),
                        [bl, pr])

    def metric_stability(self, ctx: Context, ns, gates: Gates) -> None:
        L = ctx.L
        pair = ctx.unit(lambda t: (L.bl_distance(t, np.array([1.0, 0.0]), np.array([0.0, 1.0])),
                                   L.prohorov_distance(t, np.array([1.0, 0.0]),
                                                       np.array([0.0, 1.0]))))
        worst_bl = worst_p = 0.0
        for rho, table in zip(ns.two_point, ns.two_point_tables):
            bl, pr = pair(table)
            worst_bl = max(worst_bl, abs(bl - 2.0 * rho / (2.0 + rho)))
            worst_p = max(worst_p, abs(pr - min(rho, 1.0)))
        gates.check("two-point BL = 2r/(2+r)", worst_bl <= 1e-6, worst_bl)
        gates.check("two-point Prohorov = min(r, 1)", worst_p <= 1e-6, worst_p)

        def axioms(table, w):
            ok = True
            for metric in (L.bl_distance, L.prohorov_distance):
                d01 = metric(table, w[0], w[1])
                ok &= abs(metric(table, w[1], w[0]) - d01) <= 1e-6
                ok &= metric(table, w[0], w[0]) <= 1e-6
                ok &= d01 <= metric(table, w[0], w[2]) + metric(table, w[2], w[1]) + 1e-6
            return ok
        timed_axioms = ctx.unit(axioms)
        gates.check("metric axioms on random triples",
                    all([timed_axioms(table, w) for table, w in ns.triples]))

        base, family = ns.stability
        harness = ctx.unit(L.stability_harness)("area-measure", base, family,
                                                rho=0.02, upper=2.0, order=2)
        lhs = [e["d_BL_lhs"] for e in harness["entries"]]
        rhs = [e["d_BL_rhs"] for e in harness["entries"]]
        final = harness["final"]
        gates.check("stability co-vanishing",
                    all(a > b for a, b in zip(lhs, lhs[1:]))
                    and all(a > b for a, b in zip(rhs, rhs[1:]))
                    and final["d_BL_rhs"] < 1e-3 and final["d_BL_lhs"] < 1e-2,
                    [final["d_BL_lhs"], final["d_BL_rhs"]])

    def cli(self, ctx: Context, ns, gates: Gates) -> None:
        code, summary = run_cli(ctx, ns.cli_argv)
        gates.check("cli stability exit 0", code == 0,
                    {"code": code, "max_ratio": summary and summary["results"]["max_ratio"]})

    def oracles(self, ctx: Context, ns, gates: Gates) -> None:
        L = ctx.L
        for m, (table, mu, nu) in ns.metric_pairs.items():
            bl, pr = ns.distances[m]
            reference = bl_distance_highs(table.dist, mu, nu)
            if bl is not None:
                gates.within(f"oracle.m={m} BL vs HiGHS", bl, reference, BL_ORACLE_TOL)
            if pr is not None:
                prohorov_oracle(gates, f"oracle.m={m} Prohorov", table.dist, mu, nu, pr,
                                reference, PROHOROV_TOL)
        self._segment_oracle(ctx, ns, gates)

    def _segment_oracle(self, ctx: Context, ns, gates: Gates) -> None:
        """A seeded subset of flat pairs of one replication, picked by the
        run seed, solved one pair at a time with closest_pair, must match
        the proximity output."""
        L = ctx.L
        sample = L.sample_poisson(ns.spec52, ns.ball_radius,
                                  replication_stream(ns.flat_plan.master_seed,
                                                     self.seed % self.flat_reps))
        seg = L.proximity(sample, delta=DELTA)
        found = {(int(i), int(j)): k for k, (i, j) in enumerate(seg.pairs)}
        i, j = np.triu_indices(len(sample), k=1)
        rng = np.random.default_rng(master_seed(self.seed, 48))
        chosen = rng.permutation(i.size)[:self.oracle_pairs]
        flats = sample.flats
        mismatches = 0
        for c in chosen:
            key = (int(i[c]), int(j[c]))
            try:
                ref = L.closest_pair(flats[key[0]], flats[key[1]])
            except DegeneratePairError:
                mismatches += key in found
                continue
            if ref.length > DELTA:
                mismatches += key in found
            elif key not in found:
                mismatches += 1
            else:
                k = found[key]
                mismatches += not (abs(seg.lengths[k] - ref.length) <= 1e-9
                                   and np.allclose(seg.midpoints[k], ref.midpoint, atol=1e-9))
        gates.check("oracle.generic segments vs closest_pair", mismatches == 0,
                    {"pairs": int(chosen.size), "mismatches": int(mismatches)})


def _contracting_family(rng):
    base_units = [np.eye(3)[i] for i in range(3)]
    extra = rng.standard_normal(3)
    base_units.append(extra / np.linalg.norm(extra))
    weight = 1.0 / len(base_units)
    base = SphereMeasure.atoms(3, [(u, weight) for u in base_units])
    family = []
    for t in (0.2, 0.1, 0.05, 0.025, 0.002):
        moved = []
        for i, u in enumerate(base_units):
            drift = np.roll(u, 1)
            v = u + t * (i + 1) / len(base_units) * (drift - (drift @ u) * u)
            moved.append(v / np.linalg.norm(v))
        family.append((t, SphereMeasure.atoms(3, [(u, weight) for u in moved])))
    return base, family


WORKLOADS = {cls.name: cls for cls in (LinesLargeWindow, SmallWindowReplications,
                                       GenericFlatsAndMetrics)}

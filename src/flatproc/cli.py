"""Batch command-line front end.

Every subcommand resolves its configuration (flags override an optional
key=value config file), runs, and writes a JSON summary embedding the
resolved configuration and the package version.  Exit codes: 0 success,
1 usage or precondition error, 2 ran correctly but a statistical or
identity acceptance check failed.

The module imports only the standard library.  Argument parsing and each
subcommand's checks of its arguments run first; the subcommand then imports
the public names of the engines it calls, so `version` and usage errors load
no numpy.  `proximity` converts its `--window` text in its handler, after
the 2k < n check; the default `cube` is the unit cube of R^n.  `zonoid` runs
on the unit-mass measure, reports gamma^m V_m and checks one area measure an
order against V_r; `stability` runs `measure_metrics.contracting_family`.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from functools import partial
from pathlib import Path
from typing import TYPE_CHECKING

from . import __version__

if TYPE_CHECKING:
    import numpy as np

    from .closed_form import WindowDescriptor
    from .measures import GrassmannMeasure
    from .simulator import FlatProcessSpec

Z_THRESHOLD = 3.0


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse's negative numbers, -2 and -0.5, and also -inf, -nan and -1e-3
        self._negative_number_matcher = re.compile(
            r"^-((\d+\.?\d*|\.\d+)(e[-+]?\d+)?|inf(inity)?|nan)$", re.IGNORECASE)

    def error(self, message):  # usage errors exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        raise SystemExit(self._fail(message))

    @staticmethod
    def _fail(message) -> int:
        print(f"error: {message}", file=sys.stderr)
        return 1


def _default_seed() -> int:
    try:
        return _integer(os.environ.get("FLATPROC_SEED", "0"), low=0)
    except argparse.ArgumentTypeError as exc:
        raise ValueError(f"FLATPROC_SEED {exc}") from None


def _finite_float(text: str, zero_ok: bool) -> float:
    """A float flag's value: finite, and positive (or 0 where zero_ok)."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not (math.isfinite(value) and (value > 0 or zero_ok and value == 0)):
        kind = "nonnegative" if zero_ok else "positive"
        raise argparse.ArgumentTypeError(f"must be finite and {kind}, got {text!r}")
    return value


_positive_float = partial(_finite_float, zero_ok=False)
_nonnegative_float = partial(_finite_float, zero_ok=True)


def _integer(text: str, low: int) -> int:
    """An integer flag's value: at least low."""
    try:
        value = int(text)
    except ValueError:
        value = None
    if value is None or value < low:
        raise argparse.ArgumentTypeError(f"must be an integer >= {low}, got {text!r}")
    return value


def _parse_window(text: str, n: int) -> WindowDescriptor:
    from .closed_form import WindowDescriptor

    try:
        if text == "cube":
            return WindowDescriptor.unit_cube(n)
        if text.startswith("cube:"):
            return WindowDescriptor.unit_cube(int(text.split(":")[1]))
        if text.startswith("ball:"):
            return WindowDescriptor.ball(float(text.split(":")[1]))
        if text.startswith("box:"):
            return WindowDescriptor.box([float(t) for t in text.split(":")[1].split(",")])
    except ValueError as exc:
        raise ValueError(f"argument --window: {exc}, got {text!r}") from None
    raise ValueError(f"argument --window: cannot parse window {text!r}; "
                     "use cube, cube:N, ball:R, or box:s1,s2,...")


def _parse_q(text: str, n: int, k: int) -> GrassmannMeasure:
    import numpy as np

    from .measures import GrassmannMeasure, parse_directional_file

    if text == "isotropic":
        return GrassmannMeasure.isotropic(n, k, 1.0)
    if text == "axes":
        if k != 1:
            raise ValueError("axes distribution needs k = 1")
        return GrassmannMeasure(n, 1, np.eye(n)[:, None], np.full(n, 1.0 / n))
    path = Path(text)
    if not path.exists():
        raise ValueError(f"directional distribution file not found: {text}")
    q = parse_directional_file(path)
    if q.n != n or q.k != k:
        raise ValueError(
            f"distribution in {text} lives on G({q.n},{q.k}), expected G({n},{k})")
    return q.normalized()


def _emit(summary: dict, out: str | None) -> None:
    text = json.dumps(summary, indent=2, default=_json_default)
    if out:
        Path(out).write_text(text + "\n")
    else:
        print(text)


def _json_default(obj):
    from fractions import Fraction

    import numpy as np

    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}"
    raise TypeError(f"not JSON serializable: {type(obj)}")


def _record(name: str, value: float, standard_error: float, inputs: dict) -> dict:
    """The JSON record of an emitted closed-form value."""
    return {"name": name, "value": value, "standardError": standard_error, "inputs": inputs}


def _process_spec(args) -> FlatProcessSpec:
    """The Poisson k-flat process of the proximity, clt and weibull commands."""
    if not 2 * args.k < args.n:
        raise ValueError("requires 2k < n")
    from .simulator import FlatProcessSpec

    return FlatProcessSpec(args.n, args.k, args.gamma, _parse_q(args.q, args.n, args.k))


def _estimate(rng, spec: FlatProcessSpec, delta: float, alpha: float,
              window: WindowDescriptor, shortest: bool) -> float:
    """F_alpha of one sample in the window, or its shortest d^alpha; the
    sample radius is the smallest that keeps the functionals exact."""
    from .derived_processes import f_alpha, order_statistics, proximity
    from .simulator import sample_poisson

    sample = sample_poisson(spec, window.circumradius() + delta / 2.0, rng)
    seg = proximity(sample, delta=delta)
    if shortest:
        return float(order_statistics(seg, alpha, window, 1)[0])
    return f_alpha(seg, alpha, window)


def _estimate_intersection_count(rng, spec: FlatProcessSpec, order: int) -> float:
    import numpy as np

    from .derived_processes import intersections
    from .simulator import sample_poisson

    inter = intersections(sample_poisson(spec, 1.0, rng), order=order)
    return float(np.sum(np.linalg.norm(inter.offsets, axis=1) <= 1.0))


def _write_raw_csv(path: str, columns: dict) -> None:
    """Opt-in CSV of raw replication values, one column per series, the
    columns of one length."""
    rows = (",".join(repr(float(x)) for x in row)
            for row in zip(*columns.values(), strict=True))
    Path(path).write_text("\n".join([",".join(columns), *rows]) + "\n")


def _cmd_simulate(args) -> tuple[dict, int]:
    if not 1 <= args.k <= args.n:
        raise ValueError(f"simulate needs 1 <= --k <= --n, got --n {args.n} --k {args.k}")
    if args.kind == "sr" and args.k == args.n:  # the anchor subspace has dimension n - k
        raise ValueError(f"simulate --kind sr needs --k < --n, got --n {args.n} --k {args.k}")
    import numpy as np

    from .flat_geometry import Subspace
    from .simulator import (FlatProcessSpec, SrConstruction, sample_poisson, sample_sr_flats,
                            write_flat_sample)

    q = _parse_q(args.q, args.n, args.k)
    if args.kind == "poisson":
        spec = FlatProcessSpec(args.n, args.k, args.gamma, q)
        sample = sample_poisson(spec, args.radius, args.seed)
    else:
        anchor = Subspace(np.eye(args.n)[args.k:])
        spec = FlatProcessSpec(args.n, args.k, args.gamma, q,
                               kind=SrConstruction(args.kappa, anchor))
        sample = sample_sr_flats(spec, args.radius, args.seed,
                                 cover_radius=args.cover)
    write_flat_sample(sample, args.sample_out)
    results = {"flats": len(sample), "sampleFile": args.sample_out}
    if args.segments_out:
        from .derived_processes import proximity, write_segments_csv

        seg = proximity(sample, delta=args.delta)
        write_segments_csv(seg, args.segments_out, seed=str(args.seed))
        results["segments"] = len(seg)
        results["segmentsFile"] = args.segments_out
    return results, 0


def _cmd_proximity(args) -> tuple[dict, int]:
    spec = _process_spec(args)
    window = _parse_window(args.window, args.n)
    from .closed_form import isoperimetric_bound, mean_F_alpha
    from .stats_harness import ReplicationPlan, replicate

    closed, closed_se = mean_F_alpha(args.n, args.k, args.gamma, spec.q, args.delta,
                                     args.alpha, window)
    plan = ReplicationPlan(args.reps, args.seed, name="proximity")
    est = partial(_estimate, spec=spec, delta=args.delta, alpha=args.alpha,
                  window=window, shortest=False)
    stats = replicate(plan, est, jobs=args.jobs, keep_values=bool(args.raw_csv))
    if args.raw_csv:
        _write_raw_csv(args.raw_csv, {"value": stats.pop("values")})
    se = math.sqrt(stats["standardError"] ** 2 + closed_se ** 2)
    z = (stats["mean"] - closed) / se if se > 0 else 0.0
    passed = abs(z) <= Z_THRESHOLD
    inputs = {"n": args.n, "k": args.k, "gamma": args.gamma,
              "delta": args.delta, "alpha": args.alpha, "q": args.q}
    results = {"closedForm": closed, "closedFormSE": closed_se,
               "mcMean": stats["mean"], "standardError": stats["standardError"],
               "z": z, "windowRadius": window.circumradius() + args.delta / 2.0,
               "records": [_record("meanLengthPowerFunctional", closed, closed_se, inputs)],
               "isoperimetricBound": (isoperimetric_bound(args.n, args.gamma, args.delta)
                                      if args.k == 1 and args.n >= 3 else None)}
    return results, (0 if passed else 2)


def _cmd_intersect(args) -> tuple[dict, int]:
    if args.r * args.k < (args.r - 1) * args.n:
        raise ValueError("requires r k >= (r-1) n")
    from . import constants
    from .closed_form import intersection_density
    from .simulator import FlatProcessSpec
    from .stats_harness import ReplicationPlan, replicate

    q = _parse_q(args.q, args.n, args.k)
    spec = FlatProcessSpec(args.n, args.k, args.gamma, q)
    qdim = args.r * args.k - (args.r - 1) * args.n
    density, density_se = intersection_density(
        args.n, [args.k] * args.r, [args.gamma] * args.r, [q] * args.r,
        same_process=True, rng=args.seed + 1, samples=args.mc_samples)
    expected_hits = density * constants.ball_volume(args.n - qdim)
    plan = ReplicationPlan(args.reps, args.seed, name="intersect")
    est = partial(_estimate_intersection_count, spec=spec, order=args.r)
    stats = replicate(plan, est, jobs=args.jobs)
    se = math.sqrt(stats["standardError"] ** 2
                   + (density_se * constants.ball_volume(args.n - qdim)) ** 2)
    z = (stats["mean"] - expected_hits) / se if se > 0 else 0.0
    passed = abs(z) <= Z_THRESHOLD
    results = {"intersectionDensity": density, "densitySE": density_se,
               "expectedHits": expected_hits, "mcMean": stats["mean"],
               "standardError": stats["standardError"], "z": z,
               "intersectionDim": qdim}
    return results, (0 if passed else 2)


def _cmd_zonoid(args) -> tuple[dict, int]:
    if args.n < 3:  # the identities run over r = 2..n-1
        raise ValueError(f"zonoid identities need --n >= 3, got --n {args.n}")
    import numpy as np

    from . import constants
    from .measures import symmetrize_hyperplane_measure, symmetrize_line_measure
    from .zonoid_engine import area_measure, from_measure, intrinsic_volume

    q = _parse_q(args.q, args.n, args.n - 1) if args.hyperplanes \
        else _parse_q(args.q, args.n, 1)
    if q.is_isotropic:
        raise ValueError("zonoid checks need a discrete directional distribution")
    # the unit-mass measure: V_m(gamma Z) = gamma^m V_m(Z), and both sides of
    # each identity at order r scale as gamma^r, so they run at gamma = 1
    even = symmetrize_hyperplane_measure(q) if args.hyperplanes else symmetrize_line_measure(q)
    unit = [intrinsic_volume(from_measure(even), m) for m in range(args.n + 1)]
    gamma = np.float64(args.gamma)
    with np.errstate(over="ignore", under="ignore"):  # checked below
        volumes = [float(gamma ** m * v) if v else 0.0 for m, v in enumerate(unit)]
    if not all(sys.float_info.min <= v < math.inf for v, u in zip(volumes, unit) if u):
        raise ValueError(f"zonoid --gamma {args.gamma!r} puts products of the "
                         "atom weights outside the float range")
    identity_errors = {}
    for r in range(2, args.n):
        # the total-mass relation between the area measure S_r and V_r
        scale = math.comb(args.n, r) / (args.n * constants.ball_volume(args.n - r))
        vm_err = abs(scale * area_measure(even, r).total_mass - unit[r])
        identity_errors[f"r={r}"] = {"volumeRelation": vm_err}
    worst = max((e["volumeRelation"] for e in identity_errors.values()), default=0.0)
    passed = worst <= 1e-10
    results = {"intrinsicVolumes": volumes, "identityErrors": identity_errors,
               "worstError": worst}
    return results, (0 if passed else 2)


def _cmd_clt(args) -> tuple[dict, int]:
    spec = _process_spec(args)
    from .closed_form import WindowDescriptor, asymptotic_covariance
    from .stats_harness import ReplicationPlan, clt_diagnostics, replicate

    base = WindowDescriptor.ball(1.0)
    values = {}
    for rho in args.rho:
        plan = ReplicationPlan(args.reps, args.seed + int(rho), name=f"clt rho={rho}")
        est = partial(_estimate, spec=spec, delta=args.delta, alpha=args.alpha,
                      window=base.rescaled(rho), shortest=False)
        values[rho] = replicate(plan, est, jobs=args.jobs, keep_values=True)["values"]
    if args.raw_csv:
        _write_raw_csv(args.raw_csv,
                       {f"rho={rho}": vals for rho, vals in values.items()})
    target, _ = asymptotic_covariance(args.n, args.k, args.gamma, spec.q, args.delta,
                                      args.alpha, args.alpha, base)
    report = clt_diagnostics(values, args.n, args.k, target_variance=target)
    passed = (report["ksDecreasing"] and report["finalKS"] < 0.06
              and abs(report["varianceRatio"] - 1.0) <= 0.15)
    return report, (0 if passed else 2)


def _cmd_weibull(args) -> tuple[dict, int]:
    spec = _process_spec(args)
    import numpy as np

    from .closed_form import WindowDescriptor, weibull_beta, weibull_cdf
    from .stats_harness import KS_MIN_POINTS, ReplicationPlan, ks_statistic, replicate

    base = WindowDescriptor.ball(1.0)
    beta, _ = weibull_beta(args.n, args.k, args.gamma, spec.q, base)
    plan = ReplicationPlan(args.reps, args.seed, name="weibull")
    est = partial(_estimate, spec=spec, delta=args.delta, alpha=args.alpha,
                  window=base.rescaled(args.rho), shortest=True)
    raw = replicate(plan, est, jobs=args.jobs, keep_values=True)["values"]
    scale = args.rho ** (args.n * args.alpha / (args.n - 2 * args.k))
    finite = raw[np.isfinite(raw)]
    scaled = scale * finite
    if args.raw_csv:
        _write_raw_csv(args.raw_csv, {"scaledMin": scaled})
    # too few windows with a segment leave no KS statistic: a failed check
    ks = (ks_statistic(scaled, lambda x: weibull_cdf(x, beta, args.n, args.k, args.alpha))
          if finite.shape[0] >= KS_MIN_POINTS else None)
    passed = ks is not None and ks < 0.05 and finite.shape[0] == raw.shape[0]
    results = {"beta": beta, "ks": ks, "scaled": args.rho,
               "emptyWindows": int(raw.shape[0] - finite.shape[0]),
               "meanScaledMin": float(scaled.mean()) if finite.shape[0] else None,
               "records": [_record("weibullRate", beta, 0.0, {
                   "n": args.n, "k": args.k, "gamma": args.gamma, "q": args.q})]}
    return results, (0 if passed else 2)


def _cube_indicator(lo: np.ndarray, hi: np.ndarray):
    import numpy as np

    def indicator(points: np.ndarray) -> np.ndarray:
        return np.all((points >= lo) & (points < hi), axis=1)
    return indicator


def _cmd_appendix(args) -> tuple[dict, int]:
    if args.dim < 1:
        raise ValueError(f"appendix needs a cube dimension --dim d >= 1, got --dim {args.dim}")
    if args.cubes < 0 or args.cubes == 1:
        raise ValueError("appendix --cubes: the moment checks need at least two replications "
                         f"(0 skips them), got --cubes {args.cubes}")
    import numpy as np

    from .simulator import build_factorial_distribution, sample_cube_process
    from .stats_harness import factorial_moment_check

    dist = build_factorial_distribution(args.kappa)
    table = {str(i): dist.exact[i] for i in range(args.kappa + 1)}
    moment_errors = [abs(dist.factorial_moment(m) - 1.0)
                     for m in range(1, args.kappa + 1)]
    passed = max(moment_errors) <= 1e-12
    results = {"kappa": args.kappa, "table": table,
               "probabilities": dist.probabilities.tolist(),
               "momentErrors": moment_errors}
    if args.cubes:
        d = args.dim
        sr = {}
        for r in range(2, args.kappa + 2):
            # r disjoint slabs of the unit cube along the first axis
            edges = np.linspace(0.0, 1.0, r + 1)
            sets = [_cube_indicator(np.array([edges[i]] + [0.0] * (d - 1)),
                                    np.array([edges[i + 1]] + [1.0] * (d - 1)))
                    for i in range(r)]
            check = factorial_moment_check(
                partial(sample_cube_process, d, dist, [(0, 1)] * d),
                sets, args.cubes, args.seed + r)
            expected = float(r) ** (-r)
            sr[f"r={r}"] = {**check, "expected": expected}
            if r <= args.kappa:
                passed = passed and abs(check["z"]) < Z_THRESHOLD
            else:
                passed = passed and check["exactZero"]
        results["srChecks"] = sr
    return results, (0 if passed else 2)


def _cmd_stability(args) -> tuple[dict, int]:
    if args.n < 3:  # every case reads an order in 2..n-1
        raise ValueError(f"stability needs --n >= 3, got --n {args.n}")
    if args.case != "line-proximity" and not 2 <= args.order <= args.n - 1:
        raise ValueError(f"stability needs 2 <= --order <= {args.n - 1}, got --order {args.order}")
    from .measure_metrics import contracting_family, stability_harness

    base, family = contracting_family(args.n, args.t, args.seed)
    report = stability_harness(args.case, base, family, rho=args.rho_bound,
                               upper=args.upper, order=args.order)
    lhs = [e["d_BL_lhs"] for e in report["entries"]]
    rhs = [e["d_BL_rhs"] for e in report["entries"]]
    shrinking = (all(a >= b - 1e-12 for a, b in zip(lhs, lhs[1:]))
                 and all(a >= b - 1e-12 for a, b in zip(rhs, rhs[1:])))
    bounded = all(math.isfinite(e["ratio"]) for e in report["entries"])
    passed = shrinking and bounded
    return report, (0 if passed else 2)


def _cmd_version(args) -> tuple[dict, int]:
    return {"version": __version__}, 0


def _add_flat_flags(p: argparse.ArgumentParser, k: int) -> None:
    """The flat-process flags of simulate, intersect and the process commands."""
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--k", type=int, default=k)
    p.add_argument("--gamma", type=_nonnegative_float, default=1.0)
    p.add_argument("--q", type=str, default="isotropic")


def _add_process_flags(p: argparse.ArgumentParser, alpha: float, reps: int) -> None:
    """The process, functional and replication flags of proximity, clt and weibull."""
    _add_flat_flags(p, k=1)
    p.add_argument("--delta", type=_positive_float, default=1.0)
    p.add_argument("--alpha", type=_nonnegative_float, default=alpha)
    p.add_argument("--reps", type=int, default=reps)
    p.add_argument("--raw-csv", type=str, default=None,
                   help="opt-in CSV of raw replication values")


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=partial(_integer, low=0), default=None,
                   help="master seed (env FLATPROC_SEED is the fallback)")
    p.add_argument("--out", type=str, default=None, help="JSON summary path")
    p.add_argument("--config", type=str, default=None,
                   help="key=value file; explicit flags override it")
    p.add_argument("--jobs", type=partial(_integer, low=1), default=os.cpu_count() or 1,
                   help="worker processes; results are independent of it")


def build_parser() -> argparse.ArgumentParser:
    # the help text is the docstring's first two paragraphs; the last one is
    # about the code
    parser = _Parser(prog="flatproc", description="\n\n".join(__doc__.split("\n\n")[:2]))
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="emit a flat sample (and segment CSV)")
    _add_flat_flags(p, k=1)
    p.add_argument("--radius", type=_positive_float, default=2.0)
    p.add_argument("--kind", choices=["poisson", "sr"], default="poisson")
    p.add_argument("--kappa", type=int, default=3)
    p.add_argument("--cover", type=_positive_float, default=None)
    p.add_argument("--delta", type=_positive_float, default=1.0)
    p.add_argument("--sample-out", type=str, default="flats.txt")
    p.add_argument("--segments-out", type=str, default=None)
    _add_common(p)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("proximity", help="Monte Carlo vs closed-form proximity")
    _add_process_flags(p, alpha=0.0, reps=10_000)
    p.add_argument("--window", type=str, default="cube")
    _add_common(p)
    p.set_defaults(func=_cmd_proximity)

    p = sub.add_parser("intersect", help="Monte Carlo vs closed-form intersections")
    _add_flat_flags(p, k=2)
    p.add_argument("--r", type=int, default=2)
    p.add_argument("--reps", type=int, default=2_000)
    p.add_argument("--mc-samples", type=partial(_integer, low=2), default=20_000)
    _add_common(p)
    p.set_defaults(func=_cmd_intersect)

    p = sub.add_parser("zonoid", help="intrinsic volumes and area-measure identities")
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--gamma", type=_positive_float, default=1.0)
    p.add_argument("--q", type=str, default="axes")
    p.add_argument("--hyperplanes", action="store_true",
                   help="interpret the distribution on G(n, n-1)")
    _add_common(p)
    p.set_defaults(func=_cmd_zonoid)

    p = sub.add_parser("clt", help="normality diagnostics across window scales")
    _add_process_flags(p, alpha=0.0, reps=1_000)
    p.add_argument("--rho", type=_positive_float, nargs="+", default=[2.0, 4.0, 8.0])
    _add_common(p)
    p.set_defaults(func=_cmd_clt)

    p = sub.add_parser("weibull", help="scaled shortest-segment law vs its limit")
    _add_process_flags(p, alpha=1.0, reps=2_000)
    p.add_argument("--rho", type=_positive_float, default=8.0)
    _add_common(p)
    p.set_defaults(func=_cmd_weibull)

    p = sub.add_parser("appendix", help="count-law tables and moment checks")
    p.add_argument("--kappa", type=int, default=3)
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--cubes", type=int, default=0,
                   help="replications for the per-cube moment checks (0 = skip)")
    _add_common(p)
    p.set_defaults(func=_cmd_appendix)

    p = sub.add_parser("stability", help="measure-metric stability report")
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--case", choices=["area-measure", "hyperplane-intersection",
                                      "line-proximity"], default="area-measure")
    p.add_argument("--order", type=int, default=2)
    p.add_argument("--t", type=_positive_float, nargs="+", default=[0.2, 0.1, 0.05, 0.025])
    p.add_argument("--rho-bound", type=_positive_float, default=0.02)
    p.add_argument("--upper", type=_positive_float, default=4.0)
    _add_common(p)
    p.set_defaults(func=_cmd_stability)

    p = sub.add_parser("version", help="print the package version")
    _add_common(p)
    p.set_defaults(func=_cmd_version)
    return parser


def _apply_config(argv: list[str]) -> list[str]:
    """Insert config-file key=value pairs as flags right after the
    subcommand, so explicit flags (parsed later) override them."""
    if "--config" not in argv:
        return argv
    pos = argv.index("--config")
    if pos + 1 == len(argv):
        raise ValueError("--config needs a file path")
    path = argv[pos + 1]
    tokens: list[str] = []
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = line.partition("=")
        tokens.append(f"--{key.strip()}")
        tokens.extend(str(value).strip().split())
    return argv[:1] + tokens + argv[1:]


def run(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        parser = build_parser()
        if argv and not argv[0].startswith("-"):
            argv = _apply_config(argv)
        args = parser.parse_args(argv)
        if args.seed is None:  # neither --seed nor the config file gave one
            args.seed = _default_seed()
        config = {key: value for key, value in vars(args).items() if key != "func"}
        results, code = args.func(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except (ValueError, OSError) as exc:
        return _Parser._fail(exc)
    passed = None if code == 0 and args.command in ("simulate", "version") else code == 0
    _emit({"command": args.command, "version": __version__, "config": config,
           "results": results, "passed": passed}, getattr(args, "out", None))
    return code


def main() -> None:
    try:
        code = run()
        sys.stdout.flush()  # a closed pipe fails here, inside the try
    except BrokenPipeError:
        # the reader went away (`flatproc ... | head`): send what is left to
        # devnull, so the flush at exit cannot fail again, and exit 1 as
        # Python does on EPIPE
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    raise SystemExit(code)


if __name__ == "__main__":
    main()

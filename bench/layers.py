"""The flatproc functions the benchmark calls, grouped by layer (module).

`Layers(tracer)` exposes each function as an attribute.  Without a tracer
the attribute is the library function itself, so untraced runs pay
nothing.  With a tracer each call runs inside a span named
`<module>.<function>`, and a hook records the counters of that call site.
"""
from __future__ import annotations

import importlib
import math

from flatproc import constants
from flatproc.simulator import sr_intensity

# support sizes of the seeded distance pairs.  The solve times depend on
# the instance: the bounded-Lipschitz simplex's pivot count varies tenfold
# between seeds at m = 16, and the Prohorov bisection at m = 20 takes
# 4.4-5.9 s.  Stopping at 14 and 18 keeps that variation from swamping the
# verdict time while the exponential subset enumeration still shows.
BL_SIZES = (8, 12, 14)
PROHOROV_SIZES = (8, 12, 16, 18)
METRIC_SIZES = tuple(sorted(set(BL_SIZES) | set(PROHOROV_SIZES)))


def _flats(counts, args, kwargs, result, seconds):
    counts["flats"] = len(result)


def _sr_flats(counts, args, kwargs, result, seconds):
    spec, radius = args[0], args[1]
    d = spec.n - spec.k
    counts["flats"] = len(result)
    counts["expected"] = sr_intensity(spec.n, spec.k) * constants.ball_volume(d) * radius ** d


def _cube_points(counts, args, kwargs, result, seconds):
    counts["points"] = len(result)


def _proximity(counts, args, kwargs, result, seconds):
    a = args[0]
    b = args[1] if len(args) > 1 else kwargs.get("sample_b")
    counts["flats"] = len(a) + (0 if b is None or b is a else len(b))
    counts["pairs"] = (len(a) * (len(a) - 1) // 2 if b is None or b is a
                       else len(a) * len(b))
    counts["segments"] = len(result)


def _intersections(counts, args, kwargs, result, seconds):
    sample, order = args[0], kwargs["order"]
    counts["flats"] = len(sample)
    counts["tuples"] = math.comb(len(sample), order)
    counts["kept"] = len(result)


def _mc_closed_form(counts, args, kwargs, result, seconds):
    # exact branches return a zero standard error and draw no samples
    if result[1] > 0:
        counts["mc_samples"] = kwargs["samples"]
        counts["mc_seconds"] = seconds


def _integrate(counts, args, kwargs, result, seconds):
    counts["samples"] = kwargs["samples"]


def _by_size(counts, args, kwargs, result, seconds):
    m = args[0].size
    counts[f"seconds.m{m}"] = seconds
    counts[f"calls.m{m}"] = 1


def _table_size(counts, args, kwargs, result, seconds):
    m = len(args[0])
    counts[f"seconds.m{m}"] = seconds
    counts[f"calls.m{m}"] = 1


def _replications(counts, args, kwargs, result, seconds):
    counts["reps"] = args[0].replications


def _moment_replications(counts, args, kwargs, result, seconds):
    counts["reps"] = args[2]


# module -> {attribute: (function name in the module, counter hook)}
LAYERS = {
    "flat_geometry": {"closest_pair": ("closest_pair", None)},
    "measures": {"integrate": ("integrate", _integrate),
                 "symmetrize_line_measure": ("symmetrize_line_measure", None),
                 "t_lift": ("t_lift", None)},
    "zonoid_engine": {"from_measure": ("from_measure", None),
                      "intrinsic_volume": ("intrinsic_volume", None),
                      "area_measure": ("area_measure", None),
                      "merge_grassmann_atoms": ("merge_grassmann_atoms", None)},
    "simulator": {"sample_poisson": ("sample_poisson", _flats),
                  "sample_cube_process": ("sample_cube_process", _cube_points),
                  "sample_sr_flats": ("sample_sr_flats", _sr_flats),
                  "sample_q0_bases": ("sample_q0_bases", None)},
    "derived_processes": {"proximity": ("proximity", _proximity),
                          "intersections": ("intersections", _intersections),
                          "f_alpha": ("f_alpha", None),
                          "order_statistics": ("order_statistics", None)},
    "closed_form": {"mean_F_alpha": ("mean_F_alpha", _mc_closed_form),
                    "intersection_density": ("intersection_density", _mc_closed_form),
                    "proximity_intensity": ("proximity_intensity", None),
                    "hyperplane_intersection": ("hyperplane_intersection", None)},
    "measure_metrics": {"metric_sample": ("MetricSample", _table_size),
                        "bl_distance": ("bl_distance", _by_size),
                        "prohorov_distance": ("prohorov_distance", _by_size),
                        "stability_harness": ("stability_harness", None)},
    "stats_harness": {"replicate": ("replicate", _replications),
                      "factorial_moment_check": ("factorial_moment_check",
                                                 _moment_replications),
                      "clt_diagnostics": ("clt_diagnostics", None)},
    "cli": {"cli_run": ("run", None)},
}


def span_name(module: str, fn_name: str) -> str:
    return f"{module}.{'metric_sample' if fn_name == 'MetricSample' else fn_name}"


# span names in the order the per-layer report lists their call counts
SPAN_NAMES = tuple(span_name(module, fn_name) for module, table in LAYERS.items()
                   for fn_name, _ in table.values())


class Layers:
    """Attribute access to every benchmarked flatproc function."""

    def __init__(self, tracer=None) -> None:
        for module, table in LAYERS.items():
            mod = importlib.import_module(f"flatproc.{module}")
            for attr, (fn_name, hook) in table.items():
                fn = getattr(mod, fn_name)
                if tracer is not None:
                    fn = tracer.wrap(span_name(module, fn_name), fn, hook)
                setattr(self, attr, fn)

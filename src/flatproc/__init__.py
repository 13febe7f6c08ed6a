"""flatproc: simulation and exact verification of Poisson and non-Poisson
flat processes, their intersection and proximity processes, associated
zonotopes, and measure-metric stability diagnostics.

`import flatproc` loads no submodule and no numpy.  The public names below
are a lazy namespace (PEP 562): the first access to one, as `flatproc.X` or
`from flatproc import X`, imports its home module and keeps the value in
this module's namespace, so later accesses are plain lookups.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# public name -> the submodule that defines it
_HOMES = {
    **dict.fromkeys(("DegeneratePairError", "Flat", "ProximitySegment", "Subspace",
                     "closest_pair", "complement", "grassmann_distance", "orthonormalize",
                     "subspace_determinant"), "flat_geometry"),
    **dict.fromkeys(("DirectionSet", "GrassmannMeasure", "SphereMeasure", "integrate",
                     "lower_bound_check", "symmetrize_hyperplane_measure",
                     "symmetrize_line_measure", "t_lift"), "measures"),
    **dict.fromkeys(("Zonotope", "area_measure", "from_measure", "intrinsic_volume",
                     "mu_Q_r", "support"), "zonoid_engine"),
    **dict.fromkeys(("FactorialDistribution", "FlatProcessSpec", "FlatSample",
                     "SrConstruction", "build_factorial_distribution",
                     "sample_cube_process", "sample_poisson", "sample_sr_flats"),
                    "simulator"),
    **dict.fromkeys(("IntersectionSample", "SegmentProcessSample", "f_alpha",
                     "intersections", "order_statistics", "proximity"),
                    "derived_processes"),
    **dict.fromkeys(("WindowDescriptor", "asymptotic_covariance", "c_constant",
                     "hyperplane_intersection", "intersection_density",
                     "isoperimetric_bound", "mean_F_alpha", "proximity_directional",
                     "proximity_intensity", "proximity_intensity_two", "weibull_beta",
                     "weibull_cdf"), "closed_form"),
    **dict.fromkeys(("MetricSample", "bl_distance", "prohorov_distance",
                     "stability_harness"), "measure_metrics"),
    **dict.fromkeys(("ReplicationPlan", "clt_diagnostics", "factorial_moment_check",
                     "ks_statistic", "replicate"), "stats_harness"),
}
# the engine submodules, also reachable as attributes before their first import
_SUBMODULES = frozenset(_HOMES.values()) | {"constants"}

__all__ = sorted(_HOMES)


def __getattr__(name: str):
    if name in _SUBMODULES:
        return _import_module(f".{name}", __name__)
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f".{_HOMES[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_HOMES) | _SUBMODULES)

"""Run one workload: set up, repeat the timed verdict for the run length,
run the oracles once, and turn timings, gates and spans into metrics.

The run is one serial process with a closed loop: each verdict starts when
the previous one has ended, and every replication plan runs with jobs=1.
Every end-to-end time is in reference-speed seconds (see `speed`):
machine-speed readings are taken before each step and, at most every
10 ms, before a unit of work.  Repetitions redo identical work on identical inputs; each
unit's time and the verdict's time are medians over the repetitions after
the first, which pays the first-call costs.
A traced run alternates untraced and traced verdicts on the same inputs,
so it measures the tracing overhead and checks that tracing changes no
output.
"""
from __future__ import annotations

import math
import re
import resource
import statistics
from time import perf_counter

from .gates import Gates
from .layers import (BL_SIZES, LAYERS, METRIC_SIZES, PROHOROV_SIZES, SPAN_NAMES,
                     Layers)
from .speed import SpeedTrack
from .tracer import Tracer
from .workloads import WORKLOADS, Context

SETUP_BUILDS = 5
MIN_VERDICTS = 2
MIN_TRACED_VERDICTS = 3

END_TO_END_UNITS = {"setup_s": "s", "verdict_s": "s", "unit_ms_p50": "ms",
                    "unit_ms_p90": "ms", "peak_rss_mb": "MB"}


def _run_steps(workload, ctx: Context, ns, gates: Gates) -> None:
    for name, step in workload.steps():
        ctx.read_speed()
        gates.guarded(name, lambda g, step=step: step(ctx, ns, g))


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 import_s: float = 0.0, workload=None, speed: SpeedTrack | None = None) -> dict:
    """Run a workload and return its metrics, gates and run record.

    workload overrides the default-sized instance (tests pass smaller ones);
    speed is the run's speed track, when the caller has already started one.
    """
    workload = workload or WORKLOADS[name](seed)
    speed = speed or SpeedTrack()
    tracer = Tracer() if trace else None
    plain = Layers()
    traced = Layers(tracer) if trace else None

    builds = []
    for b in range(SETUP_BUILDS):
        if tracer is not None:
            tracer.phase = f"setup-{b}"
        speed.read()
        start = perf_counter()
        ns = workload.setup(traced or plain)
        end = perf_counter()
        speed.read()
        builds.append(speed.scaled(start, end))

    verdicts = []          # (traced?, seconds, unit times, gates, wall seconds)
    oracle_gates = Gates()
    consistency = Gates()
    measured = 0.0
    while True:
        j = len(verdicts)
        # verdict 0 runs untraced, pays the first-call costs and is left
        # out of the times; a traced run then alternates traced and
        # untraced verdicts
        use_trace = trace and j % 2 == 1
        ctx = Context(traced, speed, tracer) if use_trace else Context(plain, speed)
        gates = Gates()
        speed.read()
        start = perf_counter()
        if use_trace:
            tracer.phase = f"verdict-{j}"
            tracer.call("bench.verdict", _run_steps, workload, ctx, ns, gates)
        else:
            _run_steps(workload, ctx, ns, gates)
        end = perf_counter()
        speed.read()
        elapsed = end - start
        verdicts.append((use_trace, speed.scaled(start, end),
                         [speed.scaled(s, e) for s, e in ctx.unit_times], gates,
                         speed.wall(start, end)))
        measured += elapsed
        if j == 0:
            if tracer is not None:
                tracer.phase = "oracle"
            oracle_ctx = Context(traced or plain, speed, tracer)
            oracle_gates.guarded("oracles",
                                 lambda g: workload.oracles(oracle_ctx, ns, g))
        else:
            first = verdicts[0]
            mode = "traced" if use_trace else "untraced"
            consistency.check(f"verdict {j} repeats verdict 0 ({mode})",
                              gates.values() == first[3].values()
                              and len(ctx.unit_times) == len(first[2]))
        if len(verdicts) >= (MIN_TRACED_VERDICTS if trace else MIN_VERDICTS) \
                and measured + elapsed > seconds:
            break

    all_gates = [v[3] for v in verdicts] + [oracle_gates, consistency]
    attempted = sum(g.attempted for g in all_gates)
    failed = [f for g in all_gates for f in g.failed]
    untraced = [v for v in verdicts[1:] if not v[0]]
    units, verdict_s = typical(untraced)
    record = {
        "attempted": attempted,
        "failed": len(failed),
        "failed_gates": sorted(set(failed)),
        "failed_frac": len(failed) / attempted,
        "verdicts": [{"traced": v[0], "seconds": v[1], "wall_s": v[4], "units": len(v[2])}
                     for v in verdicts],
        "setup_builds_s": builds,
        "import_s": import_s,
        "kernel_ms": speed.kernel_ms(),
        "speed_readings": len(speed.ends),
        "units": len(units),
        "unit_repetitions": len(untraced),
        "gates": verdicts[0][3].values() + oracle_gates.values(),
    }
    if trace:
        metrics = layer_metrics(tracer, verdicts, len(builds))
    else:
        metrics = {
            "setup_s": import_s + statistics.median(builds),
            "verdict_s": verdict_s,
            "unit_ms_p50": 1e3 * _percentile(units, 0.50),
            "unit_ms_p90": 1e3 * _percentile(units, 0.90),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    return {"metrics": metrics, "record": record, "tracer": tracer}


def result_line(result: dict, trace: bool) -> dict:
    """The final output object: correct, attempted, failed and metrics."""
    record = result["record"]
    unit = layer_unit if trace else END_TO_END_UNITS.__getitem__
    return {"correct": record["failed"] == 0, "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": {k: {"value": v, "unit": unit(k)} for k, v in result["metrics"].items()}}


def typical(verdicts) -> tuple[list[float], float]:
    """Sorted unit times and the verdict time, each the median over the
    repetitions of the verdict.

    Every repetition runs the same units on the same inputs, so what is
    left of their spread after the speed scaling is machine noise.
    """
    repetitions = [v[2] for v in verdicts]
    count = min(len(times) for times in repetitions)
    units = sorted(statistics.median(times[i] for times in repetitions)
                   for i in range(count))
    return units, statistics.median(v[1] for v in verdicts)


def _percentile(sorted_values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks (numpy's default)."""
    pos = q * (len(sorted_values) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith(".calls") or name.endswith(("_per_pair", "_per_tuple", "_ratio")):
        return "count"
    if name.endswith("_frac"):
        return "ratio"
    if name.endswith("_per_s"):
        return "1/s"
    if re.search(r"\.ms\.m\d+$", name):
        return "ms"
    if "us_per_" in name:
        return "us"
    return "s"


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, verdicts, builds: int) -> dict:
    """Per-layer metrics of the traced verdicts.

    Times and call counts are per traced verdict; functions the verdict
    never calls report per setup build (the metric tables) or per oracle
    pass (closest_pair, sample_q0_bases).
    """
    n_traced = sum(1 for v in verdicts if v[0])
    verdict = tracer.aggregate("verdict-")
    setup = tracer.aggregate("setup-")
    oracle = tracer.aggregate("oracle")

    def get(agg, name):
        return agg.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "counts": {}})

    def v(name):
        return get(verdict, name)

    def count(name, key):
        return v(name)["counts"].get(key, 0.0)

    out = {}
    for module in list(LAYERS) + ["bench"]:
        out[f"{module}.self_s"] = sum(e["self_s"] for n, e in verdict.items()
                                      if n.startswith(module + ".")) / n_traced
    # speed readings are part of no layer's work
    out["bench.verdict_s"] = (v("bench.verdict")["total_s"]
                              - v("speed.read")["total_s"]) / n_traced
    _, traced_s = typical([v for v in verdicts if v[0]])
    _, untraced_s = typical([v for v in verdicts[1:] if not v[0]])
    out["bench.trace_overhead_frac"] = traced_s / untraced_s - 1.0

    prox = "derived_processes.proximity"
    out[f"{prox}.self_s"] = v(prox)["self_s"] / n_traced
    out[f"{prox}.pairs_per_s"] = _ratio(count(prox, "pairs"), v(prox)["total_s"])
    out[f"{prox}.segments_per_pair"] = _ratio(count(prox, "segments"), count(prox, "pairs"))
    inter = "derived_processes.intersections"
    out[f"{inter}.tuples_per_s"] = _ratio(count(inter, "tuples"), v(inter)["total_s"])
    out[f"{inter}.kept_per_tuple"] = _ratio(count(inter, "kept"), count(inter, "tuples"))
    out["derived_processes.functionals.self_s"] = (
        v("derived_processes.f_alpha")["self_s"]
        + v("derived_processes.order_statistics")["self_s"]) / n_traced
    pair = get(oracle, "flat_geometry.closest_pair")
    out["flat_geometry.closest_pair.us_per_call"] = 1e6 * _ratio(pair["total_s"], pair["calls"])

    for fn in ("sample_poisson", "sample_cube_process", "sample_sr_flats"):
        e = v(f"simulator.{fn}")
        out[f"simulator.{fn}.us_per_call"] = 1e6 * _ratio(e["total_s"], e["calls"])
    out["simulator.flats_per_s"] = _ratio(count("simulator.sample_poisson", "flats"),
                                          v("simulator.sample_poisson")["total_s"])
    sr = "simulator.sample_sr_flats"
    out[f"{sr}.intensity_ratio"] = _ratio(count(sr, "flats"), count(sr, "expected"))
    for fn in ("replicate", "factorial_moment_check"):
        e = v(f"stats_harness.{fn}")
        out[f"stats_harness.{fn}.overhead_us_per_rep"] = 1e6 * _ratio(
            e["self_s"], e["counts"].get("reps", 0.0))

    mc_s = sum(count(f"closed_form.{fn}", "mc_seconds")
               for fn in ("mean_F_alpha", "intersection_density"))
    mc_n = sum(count(f"closed_form.{fn}", "mc_samples")
               for fn in ("mean_F_alpha", "intersection_density"))
    out["closed_form.mc.us_per_sample"] = 1e6 * _ratio(mc_s, mc_n)
    integ = v("measures.integrate")
    out["measures.integrate.us_per_sample"] = 1e6 * _ratio(integ["total_s"],
                                                          integ["counts"].get("samples", 0.0))
    for fn, agg, sizes in (("bl_distance", verdict, BL_SIZES),
                           ("prohorov_distance", verdict, PROHOROV_SIZES),
                           ("metric_sample", setup, METRIC_SIZES)):
        e = get(agg, f"measure_metrics.{fn}")
        for m in sizes:
            out[f"measure_metrics.{fn}.ms.m{m}"] = 1e3 * _ratio(
                e["counts"].get(f"seconds.m{m}", 0.0), e["counts"].get(f"calls.m{m}", 0.0))
    cli = v("cli.run")
    out["cli.run.s"] = _ratio(cli["total_s"], cli["calls"])

    for name in SPAN_NAMES:
        if v(name)["calls"]:
            calls = v(name)["calls"] / n_traced
        elif get(setup, name)["calls"]:
            calls = get(setup, name)["calls"] / builds
        else:
            calls = get(oracle, name)["calls"]
        out[f"{name}.calls"] = calls
    out["bench.unit.calls"] = v("bench.unit")["calls"] / n_traced
    return out

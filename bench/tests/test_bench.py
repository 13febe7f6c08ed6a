"""Tests of the benchmark itself, on reduced workload sizes.

Run from the repository root:  python -m pytest bench/tests -q
"""
import json
import math
import re
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from bench.gates import Gates, bl_distance_highs, prohorov_feasible  # noqa: E402
from bench.harness import (END_TO_END_UNITS, layer_unit, result_line,  # noqa: E402
                           run_workload)
from bench.layers import LAYERS  # noqa: E402
from bench.speed import REFERENCE_S, SpeedTrack  # noqa: E402
from bench.workloads import (GenericFlatsAndMetrics, LinesLargeWindow,  # noqa: E402
                             SmallWindowReplications)
from flatproc.measure_metrics import MetricSample, bl_distance, prohorov_distance  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
LAYER_MAP = json.loads((ROOT / "bench" / "layer_map.json").read_text())
SEED = 3


def reduced(name, seed=SEED):
    """The workload with its replication and sample counts cut down."""
    if name == "lines-large-window":
        w = LinesLargeWindow(seed)
        w.reps, w.cli_reps = 4, 60
    elif name == "small-window-replications":
        w = SmallWindowReplications(seed)
        w.cube_reps, w.clt_reps, w.moment_reps, w.sr_reps = 150, {2.0: 50, 4.0: 50}, 50, 5
    else:
        w = GenericFlatsAndMetrics(seed)
        w.flat_reps, w.plane_reps, w.mc_samples, w.metric_sizes = 20, 20, 200, (8, 12)
    return w


def run_reduced(name, trace, seed=SEED):
    return run_workload(name, seed, seconds=0, trace=trace, workload=reduced(name, seed))


@pytest.fixture(scope="module")
def runs():
    return {(w["name"], trace): run_reduced(w["name"], trace)
            for w in SPEC["workloads"] for trace in (False, True)}


def test_benchmark_file_follows_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in SPEC[key]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200 for w in SPEC["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert {w["name"] for w in SPEC["workloads"]} == set(LAYER_MAP["workloads"])


def test_layer_map_names_benchmark_metrics():
    per_layer = {m["name"] for m in SPEC["per_layer"]}
    end_to_end = {m["name"] for m in SPEC["end_to_end"]}
    workloads = {w["name"] for w in SPEC["workloads"]}
    assert set(LAYER_MAP["per_layer"]) <= per_layer
    for entry in LAYER_MAP["per_layer"].values():
        for target in entry:
            assert target["metric"] in end_to_end
            assert target["workload"] in workloads


@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_printed_with_its_unit(runs, trace):
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    for w in SPEC["workloads"]:
        result = runs[(w["name"], trace)]
        line = json.loads(json.dumps(result_line(result, trace)))
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert set(line["metrics"]) == {m["name"] for m in declared}
        for m in declared:
            entry = line["metrics"][m["name"]]
            assert entry["unit"] == m["unit"]
            assert math.isfinite(entry["value"])


def test_declared_units_match_the_harness():
    for m in SPEC["end_to_end"]:
        assert END_TO_END_UNITS[m["name"]] == m["unit"]
    for m in SPEC["per_layer"]:
        assert layer_unit(m["name"]) == m["unit"]


def test_every_workload_passes_its_gates(runs):
    for (name, trace), result in runs.items():
        record = result["record"]
        assert record["failed"] == 0, (name, trace, record["failed_gates"])
        assert record["attempted"] > 0


def test_untraced_end_to_end_metrics_are_positive(runs):
    for w in SPEC["workloads"]:
        metrics = runs[(w["name"], False)]["metrics"]
        assert all(metrics[m["name"]] > 0 for m in SPEC["end_to_end"])


def test_traced_and_untraced_runs_give_identical_values(runs):
    for w in SPEC["workloads"]:
        plain = runs[(w["name"], False)]["record"]["gates"]
        traced = runs[(w["name"], True)]["record"]["gates"]
        assert plain == traced


def test_self_times_account_for_the_traced_verdict(runs):
    modules = list(LAYERS) + ["bench"]
    for w in SPEC["workloads"]:
        metrics = runs[(w["name"], True)]["metrics"]
        total = sum(metrics[f"{m}.self_s"] for m in modules)
        assert total == pytest.approx(metrics["bench.verdict_s"], rel=1e-9)
        assert all(metrics[f"{m}.self_s"] >= 0 for m in modules)


def test_counts_repeat_exactly_at_one_seed(runs):
    counted = re.compile(r"\.calls$|segments_per_pair$|kept_per_tuple$|intensity_ratio$")
    name = "small-window-replications"
    again = run_reduced(name, True)["metrics"]
    first = runs[(name, True)]["metrics"]
    keys = [k for k in first if counted.search(k)]
    assert keys
    assert {k: first[k] for k in keys} == {k: again[k] for k in keys}


def test_gate_fed_a_wrong_target_fails():
    gates = Gates()
    assert gates.z("right", 1.0, 0.1, 1.05)
    assert not gates.z("wrong", 1.0, 0.1, 1.5)
    assert not gates.within("identity", 1.0, 1.0 + 1e-9, 1e-10)
    assert gates.failed == ["wrong", "identity"]


def test_workload_gate_catches_a_wrong_closed_form(monkeypatch):
    import flatproc.closed_form as closed_form

    exact = closed_form.mean_F_alpha

    def doubled(*args, **kwargs):
        value, se = exact(*args, **kwargs)
        return 2.0 * value, se

    monkeypatch.setattr(closed_form, "mean_F_alpha", doubled)
    record = run_reduced("small-window-replications", False)["record"]
    assert "unit cube F0 vs pi/4" in record["failed_gates"]
    assert record["failed"] > 0


def test_raising_step_counts_as_a_failed_gate():
    gates = Gates()
    gates.guarded("step", lambda g: 1 / 0)
    assert gates.failed == ["step.raised"]


def test_highs_oracle_agrees_with_the_library():
    rng = np.random.default_rng(5)
    pts = rng.standard_normal((6, 3))
    dist = np.linalg.norm(pts[:, None] - pts[None, :], axis=2)
    mu, nu = rng.random(6), rng.random(6)
    mu, nu = mu / mu.sum(), nu / nu.sum()
    sample = MetricSample(dist)
    assert bl_distance_highs(dist, mu, nu) == pytest.approx(bl_distance(sample, mu, nu),
                                                            abs=1e-9)
    rho = prohorov_distance(sample, mu, nu)
    assert prohorov_feasible(rho, dist, mu, nu)
    assert not prohorov_feasible(rho - 1e-3, dist, mu, nu)


def test_speed_scaling_cuts_out_readings_and_uses_the_nearest_ones():
    speed = SpeedTrack()
    # readings of 2 ms at t = 0 and of 4 ms at t = 10; work from 0.002 to 10.5
    speed.starts, speed.ends = [0.0, 10.0], [0.002, 10.004]
    assert speed.wall(0.002, 10.5) == pytest.approx(10.0 - 0.002 + 0.496)
    expected = (9.998 / 0.003 + 0.496 / 0.004) * REFERENCE_S
    assert speed.scaled(0.002, 10.5) == pytest.approx(expected)

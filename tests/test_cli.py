import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import flatproc
from flatproc import __version__
from flatproc.cli import build_parser, run
from flatproc.simulator import read_flat_sample


def run_json(argv, tmp_path, name="out.json"):
    out = tmp_path / name
    code = run(argv + ["--out", str(out)])
    return code, json.loads(out.read_text())


def test_version_command(tmp_path, capsys):
    code = run(["version"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["results"]["version"] == __version__
    assert payload["version"] == __version__


def test_proximity_matches_closed_form(tmp_path):
    code, payload = run_json(
        ["proximity", "--n", "3", "--k", "1", "--gamma", "1", "--delta", "1",
         "--q", "isotropic", "--reps", "2500", "--seed", "7", "--jobs", "1"],
        tmp_path)
    assert code == 0 and payload["passed"] is True
    res = payload["results"]
    assert res["closedForm"] == pytest.approx(math.pi / 4.0, abs=1e-12)
    assert abs(res["mcMean"] - res["closedForm"]) <= 3.0 * res["standardError"]
    assert payload["config"]["seed"] == 7
    assert payload["config"]["reps"] == 2500


def test_proximity_precondition_exit_code(capsys):
    code = run(["proximity", "--n", "4", "--k", "2", "--gamma", "1",
                "--delta", "1", "--q", "isotropic", "--reps", "100"])
    assert code == 1
    assert "requires 2k < n" in capsys.readouterr().err


def test_proximity_default_window_is_the_unit_cube_of_r_n(tmp_path, capsys):
    # `cube` is the unit cube of R^n; `cube:N` keeps its own dimension
    code, payload = run_json(["proximity", "--n", "4", "--k", "1", "--reps", "10",
                              "--seed", "3", "--jobs", "1"], tmp_path)
    assert code in (0, 2) and payload["config"]["window"] == "cube"
    assert payload["results"]["windowRadius"] == 1.5  # sqrt(4) / 2 + delta / 2
    assert run(["proximity", "--n", "4", "--window", "cube:2", "--reps", "10"]) == 1
    assert "box side count must match the ambient dimension" in capsys.readouterr().err


def test_unknown_flag_exits_one(capsys):
    assert run(["proximity", "--nonsense"]) == 1


def test_appendix_tables(tmp_path):
    code, payload = run_json(["appendix", "--kappa", "3"], tmp_path)
    assert code == 0
    assert payload["results"]["table"] == {"0": "1/3", "1": "1/2",
                                           "2": "0/1", "3": "1/6"}
    code, payload = run_json(["appendix", "--kappa", "4"], tmp_path)
    assert payload["results"]["table"] == {"0": "3/8", "1": "1/3", "2": "1/4",
                                           "3": "0/1", "4": "1/24"}


def test_appendix_cube_checks(tmp_path):
    code, payload = run_json(
        ["appendix", "--kappa", "3", "--cubes", "4000", "--seed", "11"], tmp_path)
    assert code == 0 and payload["passed"] is True
    checks = payload["results"]["srChecks"]
    assert abs(checks["r=2"]["z"]) < 3.0
    assert checks["r=4"]["exactZero"] is True


def test_simulate_writes_sample_and_segments(tmp_path):
    sample_path = tmp_path / "flats.txt"
    seg_path = tmp_path / "segments.csv"
    code, payload = run_json(
        ["simulate", "--n", "3", "--k", "1", "--gamma", "1", "--radius", "2",
         "--seed", "3", "--sample-out", str(sample_path),
         "--segments-out", str(seg_path), "--delta", "1"], tmp_path)
    assert code == 0
    sample = read_flat_sample(sample_path)
    assert sample.n == 3 and sample.k == 1 and len(sample) == payload["results"]["flats"]
    header = seg_path.read_text().splitlines()[1]
    assert header == "mx,my,mz,d,ux,uy,uz,i,j"


def test_same_argv_and_seed_identical_outputs(tmp_path):
    out = tmp_path / "same.json"
    argv = ["proximity", "--n", "3", "--k", "1", "--gamma", "1", "--delta", "1",
            "--q", "isotropic", "--reps", "300", "--seed", "21",
            "--out", str(out)]
    run(argv)
    first = out.read_text()
    run(argv)
    assert out.read_text() == first


def test_config_file_defaults_and_flag_override(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("n=3\nk=1\ngamma=1\ndelta=1\nq=isotropic\nreps=300\nseed=5\n")
    code, from_config = run_json(
        ["proximity", "--config", str(config)], tmp_path, "c.json")
    assert code == 0
    assert from_config["config"]["reps"] == 300 and from_config["config"]["seed"] == 5
    code, overridden = run_json(
        ["proximity", "--config", str(config), "--seed", "6"], tmp_path, "d.json")
    assert overridden["config"]["seed"] == 6


def test_env_seed_fallback(tmp_path, monkeypatch):
    monkeypatch.setenv("FLATPROC_SEED", "4242")
    import importlib

    from flatproc import cli as cli_module
    importlib.reload(cli_module)
    out = tmp_path / "env.json"
    code = cli_module.run(["appendix", "--kappa", "2", "--out", str(out)])
    assert code == 0
    assert json.loads(out.read_text())["config"]["seed"] == 4242
    monkeypatch.delenv("FLATPROC_SEED")
    importlib.reload(cli_module)


@pytest.mark.parametrize("value", ["abc", "-1", "2.5", ""])
def test_bad_env_seed_exits_one_with_one_line(value, monkeypatch, capsys):
    monkeypatch.setenv("FLATPROC_SEED", value)
    assert run(["version"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert captured.err.splitlines() == [
        f"error: FLATPROC_SEED must be an integer >= 0, got {value!r}"]


@pytest.mark.parametrize("seed_flag", [True, False], ids=["with-seed", "without-seed"])
def test_bad_env_seed_read_only_without_seed(seed_flag, monkeypatch, capsys):
    # the fallback is resolved after parsing, so --seed makes it unused
    monkeypatch.setenv("FLATPROC_SEED", "abc")
    argv = ["zonoid", "--n", "3", "--q", "axes"] + (["--seed", "3"] if seed_flag else [])
    code = run(argv)
    captured = capsys.readouterr()
    if seed_flag:
        assert code == 0 and json.loads(captured.out)["config"]["seed"] == 3
    else:
        assert code == 1 and captured.out == ""
        assert captured.err.splitlines() == [
            "error: FLATPROC_SEED must be an integer >= 0, got 'abc'"]


def fresh_env() -> dict:
    """The environment of a fresh interpreter that imports this flatproc."""
    path = [str(Path(flatproc.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}


def fresh(script: str) -> str:
    """stdout of a script run in a fresh interpreter on this flatproc."""
    done = subprocess.run([sys.executable, "-c", script], env=fresh_env(), capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_cli_import_and_zonoid_load_no_scipy_submodule():
    # each scipy part loads in the function that calls it, so a fresh
    # interpreter running a command that calls none of them loads none
    script = "\n".join([
        "import contextlib, io, sys",
        "import flatproc, flatproc.cli",
        "with contextlib.redirect_stdout(io.StringIO()):",
        "    code = flatproc.cli.run(['zonoid', '--n', '3', '--q', 'axes', '--jobs', '1'])",
        "heavy = {'scipy.' + part for part in",
        "         ('special', 'integrate', 'optimize', 'linalg', 'sparse', 'stats')}",
        "print(code, sorted({'.'.join(m.split('.')[:2]) for m in sys.modules} & heavy),",
        "      'flatproc.closed_form' in sys.modules)",
    ])
    assert fresh(script).split() == ["0", "[]", "False"]


def loaded_after(argv: list[str]) -> tuple[int, set[str]]:
    """Exit code of run(argv) in a fresh interpreter, and the numpy and
    flatproc modules loaded by then."""
    out = fresh("\n".join([
        "import contextlib, io, sys",
        "import flatproc.cli",
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):",
        f"    code = flatproc.cli.run({argv!r})",
        "print(code, *sorted(m for m in sys.modules",
        "                    if m == 'numpy' or m.startswith('flatproc.')))",
    ])).split()
    return int(out[0]), set(out[1:])


def test_cli_import_loads_no_numpy_and_no_engine():
    # an engine module is still an attribute of the package, loaded on access
    out = fresh("import sys, flatproc, flatproc.cli\n"
                "print(*sorted(m for m in sys.modules if m == 'numpy' or 'flatproc' in m))\n"
                "print(flatproc.zonoid_engine.DROP_TOL)")
    assert out.split() == ["flatproc", "flatproc.cli", "1e-10"]


@pytest.mark.parametrize("argv, code", [
    (["version", "--jobs", "1"], 0), (["simulate", "--radius", "nan"], 1),
    (["zonoid", "--nonsense"], 1), (["proximity", "--delta", "nan"], 1),
    (["appendix", "--dim", "0"], 1), (["zonoid", "--n", "2"], 1),
    (["simulate", "--n", "3", "--k", "4"], 1), (["proximity", "--nonsense"], 1),
    (["proximity", "--n", "4", "--k", "2"], 1)])
def test_version_and_usage_errors_load_no_numpy(argv, code):
    # proximity converts its --window in the handler, after the 2k < n check
    assert loaded_after(argv) == (code, {"flatproc.cli"})


@pytest.mark.parametrize("argv, message", [
    (["stability", "--n", "2"], "stability needs --n >= 3, got --n 2"),
    (["stability", "--n", "-1", "--case", "line-proximity"],
     "stability needs --n >= 3, got --n -1"),
    (["stability", "--order", "5"], "stability needs 2 <= --order <= 2, got --order 5"),
    (["stability", "--case", "hyperplane-intersection", "--n", "4", "--order", "1"],
     "stability needs 2 <= --order <= 3, got --order 1"),
])
def test_stability_rejects_n_and_order_before_numpy(argv, message, capsys):
    assert run(argv) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
    assert loaded_after(argv) == (1, {"flatproc.cli"})


def test_appendix_loads_no_closed_form_zonoid_derived_or_metric_engine():
    code, modules = loaded_after(["appendix", "--kappa", "3", "--jobs", "1"])
    assert code == 0 and {"numpy", "flatproc.simulator", "flatproc.stats_harness"} <= modules
    assert not modules & {"flatproc.closed_form", "flatproc.zonoid_engine",
                          "flatproc.derived_processes", "flatproc.measure_metrics"}


def test_package_names_are_their_home_modules_objects():
    # the lazy namespace hands out the defining module's object, keeps it,
    # and lists every name; unknown names stay AttributeErrors
    listed = dir(flatproc)
    for name in flatproc.__all__:
        value = getattr(flatproc, name)
        assert value is getattr(sys.modules[value.__module__], name), name
        assert vars(flatproc)[name] is value and name in listed
    assert flatproc.__all__ == sorted(set(flatproc.__all__))
    from flatproc import WindowDescriptor, closed_form
    assert WindowDescriptor is closed_form.WindowDescriptor is flatproc.WindowDescriptor
    assert not hasattr(flatproc, "no_such_name")
    with pytest.raises(AttributeError, match="module 'flatproc' has no attribute 'cli_run'"):
        flatproc.cli_run


def test_closed_stdout_pipe_exits_one_without_traceback():
    # `flatproc appendix | head -1`, made deterministic: the reader is gone
    # before the summary is written
    read, write = os.pipe()
    os.close(read)
    try:
        done = subprocess.run([sys.executable, "-m", "flatproc.cli", "appendix", "--kappa", "3",
                               "--jobs", "1"], env=fresh_env(), stdout=write,
                              stderr=subprocess.PIPE, text=True, timeout=120)
    finally:
        os.close(write)
    assert done.returncode == 1 and done.stderr == ""


def test_proximity_raw_csv_and_records(tmp_path):
    raw = tmp_path / "raw.csv"
    code, payload = run_json(
        ["proximity", "--n", "3", "--k", "1", "--gamma", "1", "--delta", "1",
         "--q", "isotropic", "--reps", "200", "--seed", "1",
         "--raw-csv", str(raw)], tmp_path)
    assert code == 0
    lines = raw.read_text().splitlines()
    assert lines[0] == "value" and len(lines) == 201
    record = payload["results"]["records"][0]
    assert {"name", "value", "standardError", "inputs"} <= record.keys()
    assert record["value"] == pytest.approx(math.pi / 4.0, abs=1e-12)


def test_clt_raw_csv_columns_are_the_proximity_values_of_each_scale(tmp_path):
    # clt at --seed 2 runs scale rho on seed 2 + rho in the ball of radius
    # rho, as proximity does with that seed and --window ball:rho
    raw = tmp_path / "clt.csv"
    code, payload = run_json(["clt", "--rho", "1", "2", "--reps", "60", "--seed", "2",
                              "--jobs", "1", "--raw-csv", str(raw)], tmp_path)
    assert code in (0, 2) and payload["config"]["raw_csv"] == str(raw)
    columns = []
    for rho in (1, 2):
        path = tmp_path / f"rho{rho}.csv"
        code, payload = run_json(["proximity", "--window", f"ball:{rho}", "--reps", "60",
                                  "--seed", str(2 + rho), "--jobs", "1", "--raw-csv", str(path)],
                                 tmp_path)
        assert code in (0, 2) and payload["config"]["window"] == f"ball:{rho}"
        assert payload["results"]["windowRadius"] == rho + 0.5
        columns.append(path.read_text().splitlines()[1:])
    assert raw.read_text() == "\n".join(["rho=1.0,rho=2.0"]
                                        + [f"{a},{b}" for a, b in zip(*columns)]) + "\n"
    assert len(columns[0]) == 60


def test_simulate_sr_kind(tmp_path):
    sample_path = tmp_path / "sr.txt"
    code, payload = run_json(
        ["simulate", "--kind", "sr", "--kappa", "3", "--n", "3", "--k", "1",
         "--radius", "1.5", "--cover", "6", "--seed", "2",
         "--sample-out", str(sample_path)], tmp_path)
    assert code == 0
    sample = read_flat_sample(sample_path)
    assert sample.k == 1 and sample.radius == 1.5


def test_zonoid_identities_pass(tmp_path):
    code, payload = run_json(["zonoid", "--n", "3", "--q", "axes"], tmp_path)
    assert code == 0 and payload["passed"] is True
    assert payload["results"]["worstError"] <= 1e-10
    volumes = payload["results"]["intrinsicVolumes"]
    assert volumes[2] == pytest.approx(1.0 / 3.0, abs=1e-12)
    code, payload = run_json(["zonoid", "--n", "5", "--q", "axes"], tmp_path)
    assert code == 0 and list(payload["results"]["identityErrors"]) == ["r=2", "r=3", "r=4"]
    assert all(entry.keys() == {"volumeRelation"}
               for entry in payload["results"]["identityErrors"].values())


@pytest.mark.parametrize("case", ["area-measure", "hyperplane-intersection",
                                  "line-proximity"])
def test_stability_command_reports_finite_ratio(case, tmp_path):
    code, payload = run_json(["stability", "--case", case, "--jobs", "1"], tmp_path)
    assert code == 0 and payload["passed"] is True
    assert math.isfinite(payload["results"]["max_ratio"])
    assert len(payload["results"]["entries"]) == 4


def test_summary_embeds_config_and_version(tmp_path):
    code, payload = run_json(["zonoid", "--n", "3", "--q", "axes"], tmp_path)
    assert payload["version"] == __version__
    assert {"command", "version", "config", "results", "passed"} <= payload.keys()
    assert payload["config"]["n"] == 3


@pytest.mark.parametrize("argv, message", [
    (["proximity", "--config"], "--config needs a file path"),
    (["proximity", "--config", "/nonexistent/run.cfg"], "/nonexistent/run.cfg"),
    (["proximity", "--delta", "nan", "--reps", "10"], "--delta: must be finite and positive"),
    (["simulate", "--radius", "-1"], "--radius: must be finite and positive"),
    (["clt", "--rho", "2", "inf"], "--rho: must be finite and positive"),
    (["proximity", "--gamma", "-1"], "--gamma: must be finite and nonnegative"),
    (["intersect", "--mc-samples", "0"], "--mc-samples: must be an integer >= 2"),
    (["intersect", "--mc-samples", "1"], "--mc-samples: must be an integer >= 2"),
    (["intersect", "--mc-samples", "-5"], "--mc-samples: must be an integer >= 2"),
    (["stability", "--t", "nan"], "--t: must be finite and positive"),
    (["stability", "--t", "0.1", "inf"], "--t: must be finite and positive"),
    (["appendix", "--dim", "0", "--cubes", "10"], "d >= 1"),
    (["appendix", "--kappa", "3", "--cubes", "1"], "need at least two replications"),
    (["simulate", "--n", "0"], "simulate needs 1 <= --k <= --n, got --n 0 --k 1"),
    (["simulate", "--n", "3", "--k", "4"], "simulate needs 1 <= --k <= --n, got --n 3 --k 4"),
    (["simulate", "--k", "0"], "got --n 3 --k 0"),
    (["zonoid", "--n", "1"], "zonoid identities need --n >= 3, got --n 1"),
    (["zonoid", "--n", "2"], "zonoid identities need --n >= 3, got --n 2"),
    (["simulate", "--kind", "sr", "--n", "3", "--k", "3"],
     "simulate --kind sr needs --k < --n, got --n 3 --k 3"),
    (["proximity", "--jobs", "0"], "--jobs: must be an integer >= 1, got '0'"),
    (["proximity", "--jobs", "-3"], "--jobs: must be an integer >= 1, got '-3'"),
    (["version", "--jobs", "two"], "--jobs: must be an integer >= 1, got 'two'"),
    (["proximity", "--seed", "-5"], "--seed: must be an integer >= 0, got '-5'"),
    (["proximity", "--window", "ball:nan"],
     "--window: ball window needs a finite positive radius, got 'ball:nan'"),
    (["proximity", "--window", "ball:-1"],
     "--window: ball window needs a finite positive radius, got 'ball:-1'"),
    (["proximity", "--window", "ball:inf"],
     "--window: ball window needs a finite positive radius, got 'ball:inf'"),
    (["proximity", "--window", "cube:0"],
     "--window: box window needs finite positive side lengths, got 'cube:0'"),
    (["simulate", "--kind", "sr", "--radius", "3", "--cover", "0.2"],
     "cover_radius must be finite and at least the window radius 3.0, got 0.2"),
    (["appendix", "--dim", "0", "--cubes", "100"],
     "appendix needs a cube dimension --dim d >= 1, got --dim 0"),
    (["appendix", "--dim", "-2"], "appendix needs a cube dimension --dim d >= 1, got --dim -2"),
    (["appendix", "--cubes", "1"], "appendix --cubes: the moment checks need at least two "
                                   "replications (0 skips them), got --cubes 1"),
    (["appendix", "--cubes", "-3"], "(0 skips them), got --cubes -3"),
    (["zonoid", "--n", "3", "--gamma", "1e160"],
     "zonoid --gamma 1e+160 puts products of the atom weights outside the float range"),
    (["zonoid", "--gamma", "1e-200"],
     "zonoid --gamma 1e-200 puts products of the atom weights outside the float range"),
    (["zonoid", "--gamma", "1e105"], "zonoid --gamma 1e+105 puts products"),
    (["zonoid", "--gamma", "1e-160"], "zonoid --gamma 1e-160 puts products"),
    (["zonoid", "--gamma", "0"], "--gamma: must be finite and positive, got '0'"),
    (["intersect", "--n", "3", "--k", "5"], "need 0 <= k <= n, got n=3, k=5"),
    # one bad value of each float flag kind, through each place that defines one
    (["weibull", "--rho", "0"], "argument --rho: must be finite and positive, got '0'"),
    (["simulate", "--cover=-inf"],
     "argument --cover: must be finite and positive, got '-inf'"),
    (["intersect", "--gamma=-0.5"],
     "argument --gamma: must be finite and nonnegative, got '-0.5'"),
    (["clt", "--alpha", "nan"], "argument --alpha: must be finite and nonnegative, got 'nan'"),
    (["stability", "--upper", "four"], "argument --upper: invalid float value: 'four'"),
    # negative values that are not plain decimals are values too, not options
    (["simulate", "--cover", "-inf"],
     "argument --cover: must be finite and positive, got '-inf'"),
    (["simulate", "--gamma", "-1e-3"],
     "argument --gamma: must be finite and nonnegative, got '-1e-3'"),
    (["proximity", "--delta", "-nan"],
     "argument --delta: must be finite and positive, got '-nan'"),
    (["clt", "--rho", "-2"], "argument --rho: must be finite and positive, got '-2'"),
    (["stability", "--t", "-0.1"], "argument --t: must be finite and positive, got '-0.1'"),
])
def test_bad_input_exits_one_with_one_line(argv, message, capsys):
    # one error line, the last; flag errors follow argparse's usage line
    assert run(argv) == 1
    err = capsys.readouterr().err
    lines = err.splitlines()
    assert "Traceback" not in err and [ln for ln in lines if ln.startswith("error: ")] == lines[-1:]
    assert message in lines[-1]


# each subcommand's flags and defaults as they were before `_add_flat_flags`
# and `_add_process_flags` defined the shared ones once, --jobs aside
FLAG_DEFAULTS = {
    "simulate": {"n": 3, "k": 1, "gamma": 1.0, "q": "isotropic", "radius": 2.0,
                 "kind": "poisson", "kappa": 3, "cover": None, "delta": 1.0,
                 "sample_out": "flats.txt", "segments_out": None},
    "proximity": {"n": 3, "k": 1, "gamma": 1.0, "delta": 1.0, "alpha": 0.0, "q": "isotropic",
                  "reps": 10_000, "window": "cube", "raw_csv": None},
    "intersect": {"n": 3, "k": 2, "r": 2, "gamma": 1.0, "q": "isotropic", "reps": 2_000,
                  "mc_samples": 20_000},
    "zonoid": {"n": 3, "gamma": 1.0, "q": "axes", "hyperplanes": False},
    "clt": {"n": 3, "k": 1, "gamma": 1.0, "delta": 1.0, "alpha": 0.0, "q": "isotropic",
            "rho": [2.0, 4.0, 8.0], "reps": 1_000, "raw_csv": None},
    "weibull": {"n": 3, "k": 1, "gamma": 1.0, "delta": 1.0, "alpha": 1.0, "q": "isotropic",
                "rho": 8.0, "reps": 2_000, "raw_csv": None},
    "appendix": {"kappa": 3, "dim": 2, "cubes": 0},
    "stability": {"n": 3, "case": "area-measure", "order": 2, "t": [0.2, 0.1, 0.05, 0.025],
                  "rho_bound": 0.02, "upper": 4.0},
    "version": {},
}


@pytest.mark.parametrize("command", sorted(FLAG_DEFAULTS))
def test_each_subcommand_keeps_its_flags_and_defaults(command):
    # every flag's name and default, with its type: 1.0 and 1 are equal but
    # not the same default
    parsed = vars(build_parser().parse_args([command]))
    del parsed["func"]
    expected = {"command": command, **FLAG_DEFAULTS[command], "seed": None, "out": None,
                "config": None, "jobs": os.cpu_count() or 1}
    assert {key: (type(v), v) for key, v in parsed.items()} == \
        {key: (type(v), v) for key, v in expected.items()}


@pytest.mark.parametrize("gamma", ["1e100", "1e-100"])
def test_zonoid_at_extreme_representable_gamma_stays_finite(gamma, tmp_path):
    code, payload = run_json(["zonoid", "--n", "3", "--q", "axes", "--gamma", gamma],
                             tmp_path)
    assert code == 0 and payload["passed"] is True
    volumes = payload["results"]["intrinsicVolumes"]
    assert all(math.isfinite(v) and v > 0 for v in volumes)


def test_zonoid_verdict_and_errors_do_not_depend_on_gamma(tmp_path):
    # V_m(gamma Z) = gamma^m V_m(Z): the identities run on the unit-mass
    # measure and gamma only scales the reported volumes, so the 1e-10 gate
    # means the same at every gamma (the scaled identities of five lines in
    # R^3 erred by 6.1e-5 against V_2 = 3.1e11 at gamma = 1e6)
    units = np.random.default_rng(5).standard_normal((5, 3))
    units /= np.linalg.norm(units, axis=1, keepdims=True)
    law = tmp_path / "five-lines.txt"
    law.write_text("3 1\n" + "".join(f"0.2 {a!r} {b!r} {c!r}\n" for a, b, c in units.tolist()))
    runs = {gamma: run_json(["zonoid", "--n", "3", "--q", str(law), "--gamma", repr(gamma)],
                            tmp_path) for gamma in (1e-6, 1.0, 1e6)}
    unit = runs[1.0][1]["results"]
    for gamma, (code, payload) in runs.items():
        assert code == 0 and payload["passed"] is True
        results = payload["results"]
        assert results["identityErrors"] == unit["identityErrors"]
        for m, (v, v1) in enumerate(zip(results["intrinsicVolumes"], unit["intrinsicVolumes"])):
            assert v == pytest.approx(gamma ** m * v1, rel=1e-15, abs=0.0)


def test_zonoid_keeps_a_zero_volume_zero_at_an_overflowing_gamma(tmp_path):
    # two lines span a plane of R^3, so V_3 = 0; gamma^3 overflows at 1e110,
    # and 0 * inf must not reach the summary as NaN
    law = tmp_path / "planar.txt"
    law.write_text("3 1\n0.5 1.0 0.0 0.0\n0.5 0.0 1.0 0.0\n")
    code, payload = run_json(["zonoid", "--n", "3", "--q", str(law), "--gamma", "1e110"],
                             tmp_path)
    assert code == 0 and payload["passed"] is True
    assert payload["results"]["intrinsicVolumes"] == [1.0, 1e110, 0.25e220, 0.0]


def test_weibull_too_few_minima_reports_failure(tmp_path):
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, payload = run_json(["weibull", "--rho", "0.3", "--reps", "60", "--seed", "1",
                                  "--jobs", "1"], tmp_path)
    assert code == 2 and payload["passed"] is False
    res = payload["results"]
    assert res["ks"] is None and 60 - 50 < res["emptyWindows"] <= 60
    assert "NaN" not in (tmp_path / "out.json").read_text()

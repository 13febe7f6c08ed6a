import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import flatproc
from flatproc import __version__
from flatproc.cli import run
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
        "print(code, sorted({'.'.join(m.split('.')[:2]) for m in sys.modules} & heavy))",
    ])
    path = [str(Path(flatproc.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["0", "[]"]


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
])
def test_bad_input_exits_one_with_one_line(argv, message, capsys):
    # one error line, the last; flag errors follow argparse's usage line
    assert run(argv) == 1
    err = capsys.readouterr().err
    lines = err.splitlines()
    assert "Traceback" not in err and [ln for ln in lines if ln.startswith("error: ")] == lines[-1:]
    assert message in lines[-1]


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

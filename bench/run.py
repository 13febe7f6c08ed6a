"""Benchmark launcher: run one flatproc workload and print its metrics.

    python3 bench/run.py --workload lines-large-window --seed 1 --seconds 25 --trace 0

Run from the repository root.  The launcher pins the BLAS and OpenMP
pools to one thread before numpy loads, imports flatproc from ./src,
runs the workload in this one process, writes a results file under
bench/results/, and prints one line per metric followed by a final JSON
line with the keys correct, attempted, failed and metrics.
"""
import os
import sys
import time

T_START = time.perf_counter()
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
IMPORT_PROBES = 7


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


def _commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _import_seconds(src: Path, speed) -> float:
    """Reference-speed time of a fresh interpreter that imports flatproc
    and exits."""
    env = dict(os.environ, PYTHONPATH=str(src))
    speed.read()
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import flatproc, flatproc.cli"], env=env,
                   cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    end = time.perf_counter()
    speed.read()
    return speed.scaled(start, end)


def main(argv=None) -> int:
    args = _parse(argv)
    src = ROOT / "src"
    sys.path[:0] = [str(src), str(ROOT)]
    try:
        import flatproc
        import flatproc.cli  # noqa: F401  (the CLI layer loads with the rest)
    except ImportError as exc:
        print(f"error: cannot import flatproc from {src}: {exc}", file=sys.stderr)
        return 2
    if not Path(flatproc.__file__).resolve().is_relative_to(src):
        print(f"error: flatproc was imported from {flatproc.__file__}, not {src}",
              file=sys.stderr)
        return 2
    first_import_s = time.perf_counter() - T_START

    import numpy
    import scipy

    from bench.harness import result_line, run_workload
    from bench.speed import SpeedTrack

    speed = SpeedTrack()
    # set-up time counts from process start, so the imports are timed in
    # fresh interpreters, several times, and the median is kept
    import_s = statistics.median(_import_seconds(src, speed) for _ in range(IMPORT_PROBES))
    from bench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2

    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                          import_s=import_s, speed=speed)
    record = result["record"]
    record["first_import_s"] = first_import_s
    line = result_line(result, bool(args.trace))

    env = {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
           "python": platform.python_version(), "numpy": numpy.__version__,
           "scipy": scipy.__version__, "flatproc": flatproc.__version__,
           "commit": _commit(), "workload": args.workload, "seed": args.seed,
           "seconds": args.seconds, "trace": args.trace,
           "threads": {k: os.environ[k] for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                                 "MKL_NUM_THREADS")}}
    out_dir = ROOT / "bench" / "results"
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"{stem}.json").write_text(json.dumps(
        {"env": env, "metrics": line["metrics"], **record}, indent=1, default=float) + "\n")
    if result["tracer"] is not None:
        result["tracer"].write(out_dir / f"{stem}.spans.jsonl", env)

    for name, entry in line["metrics"].items():
        print(f"{name} = {entry['value']:.6g} {entry['unit']}")
    print(f"units = {record['units']} (timed untraced verdicts: {record['unit_repetitions']})")
    print(f"failed_frac = {record['failed_frac']:.6g} ratio "
          f"({record['failed']} of {record['attempted']} gates)")
    for name in record["failed_gates"]:
        print(f"FAILED gate: {name}", file=sys.stderr)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Time the parts of a unit-cube F_0 replication of Poisson lines in R^3.

Prints one line: over 3,000 replications drawn one after another from one
seeded generator, as a block of `replicate` draws them (isotropic lines of
intensity 1 in the ball of radius circumradius + delta/2 around the unit
cube, delta 1, about 5.9 lines a sample), the median microseconds of each
part, `sample_poisson`, the pair solve `pair_segments`, the
`SegmentProcessSample` that holds its output and `f_alpha` at alpha = 0 on
the cube, and of all four, then the profiled function calls per replication
(cProfile over the whole replication, `proximity` included).  It imports flatproc from the
`src` beside its own `tools` directory, so a copy of this script placed in
another checkout times that checkout's package:

    python tools/replication_timing.py

The line is a report: run it in two checkouts on one machine to compare
them, since raw times drift between hosts and runs.
"""
from __future__ import annotations

import cProfile
import pstats
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from flatproc.closed_form import WindowDescriptor  # noqa: E402
from flatproc.derived_processes import SegmentProcessSample, f_alpha, proximity  # noqa: E402
from flatproc.flat_geometry import pair_segments  # noqa: E402
from flatproc.measures import GrassmannMeasure  # noqa: E402
from flatproc.simulator import FlatProcessSpec, sample_poisson  # noqa: E402

REPS = 3000
SEED = 2012


def main() -> int:
    spec = FlatProcessSpec(3, 1, 1.0, GrassmannMeasure.isotropic(3, 1, 1.0))
    cube = WindowDescriptor.unit_cube(3)
    radius = cube.circumradius() + 0.5
    clock = time.perf_counter
    times = {"sample": [], "pair solve": [], "segment container": [], "f_alpha": []}
    lines, warm, gen = 0, np.random.default_rng(SEED + 1), np.random.default_rng(SEED)
    for rep in range(-300, REPS):  # the first 300 warm the caches, untimed
        t0 = clock()
        sample = sample_poisson(spec, radius, warm if rep < 0 else gen)
        t1 = clock()
        out = pair_segments(sample.bases, sample.offsets, sample.bases, sample.offsets, True, 1.0)
        t2 = clock()
        seg = SegmentProcessSample(3, 1.0, radius, *out)
        t3 = clock()
        f_alpha(seg, 0.0, cube)
        t4 = clock()
        if rep >= 0:
            lines += len(sample)
            for part, (start, end) in zip(times.values(), ((t0, t1), (t1, t2), (t2, t3), (t3, t4))):
                part.append(end - start)

    def replication(rng):
        return f_alpha(proximity(sample_poisson(spec, radius, rng), delta=1.0), 0.0, cube)

    gen = np.random.default_rng(SEED)
    profile = cProfile.Profile()
    profile.enable()
    for _ in range(REPS):
        replication(gen)
    profile.disable()
    calls = pstats.Stats(profile).total_calls / REPS
    parts = ", ".join(f"{name} {1e6 * statistics.median(values):.1f}"
                      for name, values in times.items())
    total = 1e6 * statistics.median(np.sum(list(times.values()), axis=0))
    print(f"unit-cube replications ({REPS}, {lines / REPS:.2f} lines each), median us: "
          f"{parts}; all four {total:.1f}; profiled calls per replication {calls:.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

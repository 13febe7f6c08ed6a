"""Time `proximity` on isotropic planes of R^5 at two window radii.

Prints one line: for radius 4.5 and 6.5 (delta 1, one fixed seed each), the
number of planes and segments and the median wall time of 3 calls in this
one process.  It imports flatproc from the `src` beside its own `tools`
directory, so a copy of this script placed in another checkout times that
checkout's package:

    python tools/plane_timing.py

The line is a report: run it in two checkouts on one machine to compare
them, since raw times drift between hosts and runs.
"""
from __future__ import annotations

import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from flatproc.derived_processes import proximity  # noqa: E402
from flatproc.measures import GrassmannMeasure  # noqa: E402
from flatproc.simulator import FlatProcessSpec, sample_poisson  # noqa: E402


def main() -> int:
    spec = FlatProcessSpec(5, 2, 1.0, GrassmannMeasure.isotropic(5, 2, 1.0))
    parts = []
    for radius in (4.5, 6.5):
        sample = sample_poisson(spec, radius, [990, int(10 * radius)])
        times = []
        for _ in range(3):
            start = time.perf_counter()
            seg = proximity(sample, delta=1.0)
            times.append(time.perf_counter() - start)
        parts.append(f"radius {radius}: {1000 * statistics.median(times):.1f} ms "
                     f"({len(sample)} planes, {len(seg)} segments)")
    print("proximity, planes of R^5, delta 1, median of 3 in one process: "
          + "; ".join(parts))
    return 0


if __name__ == "__main__":
    sys.exit(main())

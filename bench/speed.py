"""Machine-speed readings, so that timings on a shared host can be compared.

On a small virtual machine the speed of one core flips between a fast and
a slow state (about 1.6 times slower) on time scales of 0.1 s to minutes,
as other tenants load the host.  A fixed calibration kernel, run between
pieces of work, reads the speed at that moment.  Each stretch of work is
divided by the mean of the two readings around it and multiplied by
REFERENCE_S: the result is the time the work would take on a machine where
the kernel takes REFERENCE_S.  On a 2-vCPU host, one minute of passes over
the same 80 identity cases (about 0.7 s a pass) gave pass times that spread
by 29% (interquartile range over median) as wall time and by 4% after this
scaling.

The kernel uses only numpy and Python built-ins, never flatproc, so a
change to the library cannot move it.
"""
from __future__ import annotations

import bisect
from time import perf_counter

import numpy as np

# seconds; the kernel takes 1.05 ms in the fast state of a 2-vCPU Xeon VM
REFERENCE_S = 1e-3
# least time between two readings taken before units of work
INTERVAL_S = 0.01


def _kernel() -> float:
    """Small QR factorizations and dict churn, the mix of the library's
    per-flat work (~1 ms)."""
    rng = np.random.default_rng(0)
    acc, table = 0.0, {}
    for i in range(40):
        q, _ = np.linalg.qr(rng.standard_normal((5, 3)))
        acc += float(np.linalg.det(q.T @ q))
        for j in range(20):
            table[(i, j)] = i * j + acc
    return acc


class SpeedTrack:
    """Kernel readings of one run: perf_counter start and end of each."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.ends: list[float] = []
        _kernel()  # warm-up: first-call costs of numpy.linalg

    def read(self) -> None:
        start = perf_counter()
        _kernel()
        self.starts.append(start)
        self.ends.append(perf_counter())

    def due(self) -> bool:
        return not self.ends or perf_counter() - self.ends[-1] >= INTERVAL_S

    def scaled(self, start: float, end: float) -> float:
        """Reference-speed seconds of the work between start and end.

        Readings inside the interval are cut out; each remaining stretch is
        scaled by the mean of the readings just before and just after it.
        """
        return sum((hi - lo) * REFERENCE_S / kernel
                   for lo, hi, kernel in self._stretches(start, end))

    def wall(self, start: float, end: float) -> float:
        """Wall seconds of the work between start and end, readings cut out."""
        return sum(hi - lo for lo, hi, _ in self._stretches(start, end))

    def _stretches(self, start: float, end: float):
        """(start, end, kernel seconds nearby) of each stretch of work."""
        starts, ends = self.starts, self.ends
        first = bisect.bisect_left(starts, start)
        last = bisect.bisect_right(ends, end)
        cuts = [start]
        for k in range(first, last):
            cuts += [starts[k], ends[k]]
        cuts.append(end)
        for lo, hi in zip(cuts[::2], cuts[1::2]):
            before = bisect.bisect_right(ends, lo) - 1
            after = bisect.bisect_left(starts, hi)
            near = [ends[k] - starts[k] for k in (before, after) if 0 <= k < len(ends)]
            yield lo, hi, sum(near) / len(near)

    def kernel_ms(self) -> float:
        """Median kernel time of the run, in ms."""
        return 1e3 * float(np.median(np.subtract(self.ends, self.starts)))

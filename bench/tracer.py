"""In-memory span recorder for the benchmark.

A span is opened around each call the benchmark makes into a flatproc
layer.  It records its name (`<module>.<function>`), start and end
(`time.perf_counter` seconds), parent span and the phase ("run id") it
belongs to.  Counters (flats, candidate pairs, segments, ...) are attached
to the span that produced them.  Nothing is written until `write` is
called at the end of the run.
"""
from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path
from time import perf_counter


class Tracer:
    def __init__(self) -> None:
        # one row per span: [name, start, end, parent index, phase, counts]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.phase = ""

    def call(self, name: str, fn, *args, hook=None, **kwargs):
        """Run fn inside a span; hook(counts, args, kwargs, result, seconds)
        may add counters for the span after the call returns."""
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        row = [name, 0.0, 0.0, parent, self.phase, None]
        self.spans.append(row)
        self._stack.append(index)
        row[1] = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            row[2] = perf_counter()
            self._stack.pop()
        if hook is not None:
            counts: dict = {}
            hook(counts, args, kwargs, result, row[2] - row[1])
            row[5] = counts
        return result

    def wrap(self, name: str, fn, hook=None):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, hook=hook, **kwargs)
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def self_times(self) -> list[float]:
        """Duration of each span minus the time covered by its children.

        Spans of one thread nest strictly, so the children of a span never
        overlap and the covered time is the sum of their durations.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [row[2] - row[1] - child[i] for i, row in enumerate(self.spans)]

    def aggregate(self, phase_prefix: str) -> dict:
        """Totals per span name over the phases whose id starts with the
        prefix: calls, duration, self time and summed counters."""
        selfs = self.self_times()
        out: dict = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                         "counts": defaultdict(float)})
        for i, (name, start, end, _, phase, counts) in enumerate(self.spans):
            if not phase.startswith(phase_prefix):
                continue
            entry = out[name]
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += selfs[i]
            for key, value in (counts or {}).items():
                entry["counts"][key] += value
        return out

    def write(self, path: Path, header: dict) -> None:
        """One JSON header line, then one JSON array per span:
        [name, start, end, parent, run id, counts]."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            for row in self.spans:
                fh.write(json.dumps(row) + "\n")

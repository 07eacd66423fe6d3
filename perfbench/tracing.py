"""In-memory spans and the self-time arithmetic behind the per-layer table.

A span records name, start, end, parent and run id, plus counts taken at
the same boundary.  Spans stay in a list until the traced process ends
and writes them out.  Only the thread that opened the tracer records
spans; callers on worker threads count into locked counters instead.
"""

from __future__ import annotations

import math
import time
from collections import defaultdict
from contextlib import contextmanager
from statistics import median

UNCOVERED = "(uncovered)"


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.run: object = None
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        """Record ``name`` around the block; yields the span's count dict."""
        record = {
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "run": self.run,
            "counts": {},
        }
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record["counts"]
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]].append((span["start"], span["end"]))
    out = []
    for i, span in enumerate(spans):
        covered = [
            (max(s, span["start"]), min(e, span["end"])) for s, e in children.get(i, ())
        ]
        out.append(span["end"] - span["start"] - _union_length([c for c in covered if c[1] > c[0]]))
    return out


def run_metrics(spans: list[dict], selfs: list[float], run: object) -> dict[str, float]:
    """Per-name sums for one run: ``<name>.s`` self time, ``<name>.calls``
    and ``<name>.<count>`` for every count the spans carried."""
    out: dict[str, float] = defaultdict(float)
    for span, self_s in zip(spans, selfs):
        if span["run"] != run:
            continue
        name = span["name"]
        out[f"{name}.s"] += self_s
        out[f"{name}.calls"] += 1
        for key, value in span["counts"].items():
            out[f"{name}.{key}"] += value
    return dict(out)


def durations(spans: list[dict], name: str, run: object, where=None) -> list[float]:
    return [
        s["end"] - s["start"]
        for s in spans
        if s["name"] == name and s["run"] == run and (where is None or where(s))
    ]


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def layer_table(spans: list[dict], selfs: list[float], root: int) -> list[tuple[str, float]]:
    """Self time by layer inside the tree under ``root``, largest first.

    The root's own self time is the uncovered remainder, so the rows sum
    to the root span's duration.
    """
    inside = {root}
    by_layer: dict[str, float] = defaultdict(float)
    for i, span in enumerate(spans):
        if i == root:
            by_layer[UNCOVERED] += selfs[i]
        elif span["parent"] in inside:
            inside.add(i)
            by_layer[span["name"].split(".")[0]] += selfs[i]
    return sorted(by_layer.items(), key=lambda row: -row[1])


def median_metrics(per_run: list[dict[str, float]]) -> dict[str, float]:
    names = {name for metrics in per_run for name in metrics}
    return {name: median(m.get(name, 0.0) for m in per_run) for name in names}

"""In-memory span recorder used by the traced benchmark run.

A span records the name and layer of one call into the program, its start
and end (``time.perf_counter``), the CPU seconds the process spent inside it,
the span that encloses it and the run id. Spans stay in memory until the
worker writes them out at the end of the run.
"""

from __future__ import annotations

import itertools
import time
from contextlib import contextmanager, nullcontext


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._ids = itertools.count(1)

    @contextmanager
    def span(self, name: str, layer: str):
        span_id = next(self._ids)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start, cpu = time.perf_counter(), time.process_time()
        try:
            yield
        finally:
            end, cpu_end = time.perf_counter(), time.process_time()
            self._stack.pop()
            self.spans.append({
                "id": span_id, "parent": parent, "run_id": self.run_id,
                "name": name, "layer": layer, "start": start, "end": end,
                "cpu_s": cpu_end - cpu,
            })


class NullTracer:
    """Stand-in for untraced iterations: every span is a no-op."""

    spans: list[dict] = []

    def span(self, name: str, layer: str):
        return nullcontext()


def span_cost() -> float:
    """Seconds one empty span costs over a no-op span: the recorder's own
    price per traced call, measured as the median of five timed batches."""
    repeats = 20000

    def batch(tracer):
        t0 = time.perf_counter()
        for _ in range(repeats):
            with tracer.span("probe", "probe"):
                pass
        return time.perf_counter() - t0

    costs = [(batch(Tracer("probe")) - batch(NullTracer())) / repeats for _ in range(5)]
    return sorted(costs)[2]


def durations(spans: list[dict]) -> dict[str, float]:
    """Summed wall seconds per span name."""
    out: dict[str, float] = {}
    for s in spans:
        out[s["name"]] = out.get(s["name"], 0.0) + s["end"] - s["start"]
    return out


def cpu_seconds(spans: list[dict]) -> dict[str, float]:
    out: dict[str, float] = {}
    for s in spans:
        out[s["name"]] = out.get(s["name"], 0.0) + s["cpu_s"]
    return out


def self_times(spans: list[dict]) -> dict[str, float]:
    """Per layer: span durations minus the time their direct children cover."""
    child_time: dict[int, float] = {}
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + s["end"] - s["start"]
    out: dict[str, float] = {}
    for s in spans:
        own = s["end"] - s["start"] - child_time.get(s["id"], 0.0)
        out[s["layer"]] = out.get(s["layer"], 0.0) + own
    return out

"""In-memory span recorder for the traced benchmark run.

Spans are recorded from outside the program: ``Tracer.wrap`` replaces a
public function on the module that calls it with a wrapper that opens a
span around the call.  Spans stay in memory and are written out as JSON
lines when the run ends.
"""
from __future__ import annotations

import json
import time
from contextlib import contextmanager
from types import SimpleNamespace


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.op = None  # identifier shared by the spans of one operation
        self.counting = False  # count sizes only while this is set
        self.counts: dict[str, int] = {}
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = {"name": name, "start": time.perf_counter(), "end": None,
                  "parent": parent, "run": self.run_id, "op": self.op}
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(self, module, attr: str, name: str, count=None) -> None:
        """Record a span named ``name`` around every call of ``module.attr``.

        ``count`` maps the call's result to size counters; it runs only while
        ``counting`` is set, inside a ``trace.count`` span so that its cost
        is charged to tracing rather than to the caller.
        """
        original = getattr(module, attr)

        def traced(*args, **kwargs):
            with self.span(name):
                result = original(*args, **kwargs)
            if count is not None and self.counting:
                with self.span("trace.count"):
                    for key, value in count(result).items():
                        self.counts[key] = self.counts.get(key, 0) + value
            return result

        self._patched.append((module, attr, original))
        setattr(module, attr, traced)

    def restore(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: duration minus direct children."""
        child_time = [0.0] * len(self.spans)
        for record in self.spans:
            if record["parent"] is not None:
                child_time[record["parent"]] += record["end"] - record["start"]
        totals: dict[str, float] = {}
        for record, children in zip(self.spans, child_time):
            own = record["end"] - record["start"] - children
            totals[record["name"]] = totals.get(record["name"], 0.0) + own
        return totals

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for record in self.spans:
                fh.write(json.dumps(record) + "\n")


def span_cost(rounds: int = 20000) -> float:
    """Seconds one traced call adds over a bare call, on a throwaway tracer."""
    def noop():
        return None

    holder = SimpleNamespace(noop=noop)
    Tracer("calibration").wrap(holder, "noop", "noop")
    t0 = time.perf_counter()
    for _ in range(rounds):
        noop()
    bare = time.perf_counter() - t0
    t0 = time.perf_counter()
    for _ in range(rounds):
        holder.noop()
    return max(0.0, time.perf_counter() - t0 - bare) / rounds

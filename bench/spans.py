"""In-memory spans around the benchmark's calls into idsense, and the
per-layer statistics derived from them.

A span holds a name, start and end (perf_counter ns), the span open when it
started (its parent), the operation it belongs to, and attributes (counts
such as trials or enumerated blocks).  Spans are kept in a list and written
out once, when the run ends.  A span's self time is its duration minus the
time its child spans cover.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

import numpy as np


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[dict] = []

    @contextmanager
    def span(self, name: str, op_id: str, **attrs):
        rec = {"id": len(self.spans), "name": name, "op": op_id,
               "parent": self._open[-1]["id"] if self._open else None,
               "start_ns": time.perf_counter_ns(), "end_ns": None, "attrs": attrs}
        self.spans.append(rec)
        self._open.append(rec)
        try:
            yield rec
        except BaseException as exc:
            rec["attrs"]["error"] = type(exc).__name__
            raise
        finally:
            rec["end_ns"] = time.perf_counter_ns()
            self._open.pop()

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


class Calls:
    """How workload code calls the library: through a span when tracing."""

    def __init__(self, tracer: Tracer | None = None):
        self.tracer = tracer
        self.op_id = "setup"

    def __call__(self, name: str, fn, *args, attrs: dict | None = None, **kwargs):
        if self.tracer is None:
            return fn(*args, **kwargs)
        with self.tracer.span(name, self.op_id, **(attrs or {})):
            return fn(*args, **kwargs)

    def annotate(self, **attrs):
        """Attach counts known only after a call to the span just closed."""
        if self.tracer is not None:
            self.tracer.spans[-1]["attrs"].update(attrs)


def self_times(spans: list[dict]) -> dict[int, int]:
    """Span id -> self time in ns."""
    own = {s["id"]: s["end_ns"] - s["start_ns"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end_ns"] - s["start_ns"]
    return own


class Layers:
    """Self-time and count statistics over the spans of a run.

    A span's self time is multiplied by the machine-speed factor recorded as
    the `scale` attribute of the first span of its operation.
    """

    def __init__(self, spans: list[dict]):
        self.spans = spans
        scales: dict = {}
        for s in spans:
            if "scale" in s["attrs"]:
                scales.setdefault(s["op"], s["attrs"]["scale"])
        own = self_times(spans)
        self.self_ns = {s["id"]: own[s["id"]] * scales.get(s["op"], 1.0) for s in spans}

    def named(self, name: str, **match) -> list[dict]:
        return [s for s in self.spans if s["name"] == name
                and all(s["attrs"].get(k) == v for k, v in match.items())]

    def self_ms(self, name: str, q: float = 50) -> float:
        """Percentile of the self time of spans named `name`, in ms (0 if none)."""
        vals = [self.self_ns[s["id"]] / 1e6 for s in self.named(name)]
        return float(np.percentile(vals, q)) if vals else 0.0

    def rate(self, name: str, unit: str, **match) -> float:
        """Sum of attribute `unit` over sum of self time, per second (0 if none)."""
        spans = self.named(name, **match)
        secs = sum(self.self_ns[s["id"]] for s in spans) / 1e9
        return sum(s["attrs"].get(unit, 0) for s in spans) / secs if secs else 0.0

    def attr_values(self, names, key: str) -> list:
        return [s["attrs"][key] for s in self.spans
                if s["name"] in names and key in s["attrs"]]

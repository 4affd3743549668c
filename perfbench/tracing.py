"""In-memory spans recorded by the benchmark around its calls into each layer.

A root span is one op (or one set-up, or one probe); stage spans nest under
it.  Spans stay in memory and are written out when the benchmark ends.  A
disabled tracer records nothing and costs one attribute test per call, so
untraced ops run the same code as traced ones.
"""

from __future__ import annotations

import statistics
import time
from contextlib import contextmanager, nullcontext

_NULL = nullcontext()  # shared: a disabled span allocates nothing


class Tracer:
    def __init__(self, prefix: str = ""):
        self.enabled = False
        self.spans: list[dict] = []
        self._prefix = prefix
        self._stack: list[dict] = []
        self._next = 0

    def span(self, name: str):
        """Context manager that records `name` as a child of the open span,
        or as a root span when none is open."""
        return self._record(name) if self.enabled else _NULL

    @contextmanager
    def _record(self, name: str):
        parent = self._stack[-1] if self._stack else None
        span = {
            "id": f"{self._prefix}{self._next}",
            "name": name,
            "parent": parent["id"] if parent else None,
            "root": parent["root"] if parent else f"{self._prefix}{self._next}",
            "values": {},
        }
        self._next += 1
        self._stack.append(span)
        span["start"] = time.perf_counter()
        try:
            yield span
        finally:
            span["end"] = time.perf_counter()
            self._stack.pop()
            self.spans.append(span)

    def record(self, name: str, value: float) -> None:
        """Attach a measured value or count to the open root span."""
        if self.enabled and self._stack:
            values = self._stack[0]["values"]
            values[name] = values.get(name, 0) + value


def self_times(spans: list[dict]) -> dict[str, float]:
    """Self time of each span in seconds: its duration minus the time its
    direct children cover (children of one span never overlap)."""
    covered: dict[str, float] = {}
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] = covered.get(s["parent"], 0.0) + s["end"] - s["start"]
    return {s["id"]: s["end"] - s["start"] - covered.get(s["id"], 0.0) for s in spans}


def per_root(spans: list[dict], root_name: str) -> list[dict[str, float]]:
    """For each root span named `root_name` (`op`, `setup` or `probe`): the
    self time (ms) summed per span name, plus the values recorded on it.
    The root's own self time is keyed `<root_name>.self_ms`."""
    own = self_times(spans)
    names = {s["id"]: s["name"] for s in spans if s["parent"] is None}
    roots: dict[str, dict[str, float]] = {}
    for s in spans:
        if names.get(s["root"]) != root_name:
            continue
        entry = roots.setdefault(s["root"], {})
        key = s["name"] if s["parent"] is not None else f"{s['name']}.self"
        entry[key + "_ms"] = entry.get(key + "_ms", 0.0) + own[s["id"]] * 1e3
        for name, value in s["values"].items():
            entry[name] = entry.get(name, 0) + value
    return list(roots.values())


def per_span(spans: list[dict], root_name: str) -> list[dict[str, float]]:
    """The self time (ms) of each single non-root span under a root span
    named `root_name`, keyed `<span name>_ms`."""
    own = self_times(spans)
    names = {s["id"]: s["name"] for s in spans if s["parent"] is None}
    return [{s["name"] + "_ms": own[s["id"]] * 1e3} for s in spans
            if s["parent"] is not None and names.get(s["root"]) == root_name]


def medians(entries: list[dict[str, float]]) -> dict[str, tuple[float, int]]:
    """Median over root spans of each per-root quantity, with the number of
    root spans it was taken over."""
    collected: dict[str, list[float]] = {}
    for entry in entries:
        for name, value in entry.items():
            collected.setdefault(name, []).append(value)
    return {name: (statistics.median(v), len(v)) for name, v in collected.items()}

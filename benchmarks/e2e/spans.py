"""In-memory spans recorded around calls into each layer.

A span is ``{id, parent, stmt, name, start_ns, end_ns}``; spans of one
statement share ``stmt``. They are kept in memory and written out once,
when the benchmark ends. A layer's *self time* is its span's duration
minus the part of that interval its child spans cover.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    """Records nested spans and counters on one thread."""

    def __init__(self, first_id: int = 0) -> None:
        self.spans: list[dict] = []
        #: stmt -> counter name -> value, taken at the span boundaries
        self.counters: dict[int, dict[str, float]] = defaultdict(dict)
        self._stack: list[int] = []
        self._next_id = first_id

    @contextmanager
    def span(self, name: str, stmt: int, tag: str | None = None):
        record = {
            "id": self._next_id,
            "parent": self._stack[-1] if self._stack else None,
            "stmt": stmt,
            "name": name,
            "start_ns": 0,
            "end_ns": 0,
        }
        if tag is not None:
            record["tag"] = tag
        self._next_id += 1
        self._stack.append(record["id"])
        self.spans.append(record)
        record["start_ns"] = time.perf_counter_ns()
        try:
            yield record
        finally:
            record["end_ns"] = time.perf_counter_ns()
            self._stack.pop()

    def count(self, stmt: int, **values: float) -> None:
        counters = self.counters[stmt]
        for name, value in values.items():
            counters[name] = counters.get(name, 0) + value


def durations_s(spans: list[dict], name: str, tag: str | None = None
                ) -> list[float]:
    return [
        (span["end_ns"] - span["start_ns"]) / 1e9
        for span in spans
        if span["name"] == name and (tag is None or span.get("tag") == tag)
    ]


def covered_ns(intervals: list[tuple[int, int]], start: int, end: int) -> int:
    """Length of the union of ``intervals`` clipped to [start, end]."""
    covered = 0
    cursor = start
    for low, high in sorted(intervals):
        low, high = max(low, cursor), min(high, end)
        if high > low:
            covered += high - low
            cursor = high
    return covered


def self_times_ns(spans: list[dict]) -> dict[int, int]:
    """Span id -> duration minus the interval its children cover.

    Children may overlap each other (parallel parts) or spill past the
    parent's end; only the part of the parent's interval they cover is
    subtracted, and never twice.
    """
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]].append((span["start_ns"], span["end_ns"]))
    return {
        span["id"]: (span["end_ns"] - span["start_ns"])
        - covered_ns(children.get(span["id"], []),
                     span["start_ns"], span["end_ns"])
        for span in spans
    }


def self_time_by_name(spans: list[dict]) -> dict[str, float]:
    """Summed self time in seconds per span name."""
    own = self_times_ns(spans)
    totals: dict[str, float] = defaultdict(float)
    for span in spans:
        totals[span["name"]] += own[span["id"]] / 1e9
    return dict(totals)


def write_jsonl(path: Path, spans: list[dict], counters: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        for span in spans:
            handle.write(json.dumps(span, separators=(",", ":")) + "\n")
        for stmt, values in sorted(counters.items()):
            handle.write(
                json.dumps({"stmt": stmt, "counters": values},
                           separators=(",", ":")) + "\n"
            )

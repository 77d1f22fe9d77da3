"""In-memory spans recorded around calls into relsha's modules.

A span is (name, start, end, parent, cell): ``parent`` is the index of
the enclosing span or None, ``cell`` names the grid cell or fit the span
belongs to. Spans stay in memory while the workload runs and are written
out once, at the end, so tracing adds no I/O to the traced work.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, cell: str | None = None):
        index = self._add(name, time.perf_counter(), None, cell)
        self._open.append(index)
        try:
            yield self.spans[index]
        finally:
            self._open.pop()
            self.spans[index]["end"] = time.perf_counter()

    def record(self, name: str, start: float, end: float, cell: str | None = None) -> None:
        """Add a finished span, child of the innermost open span."""
        self._add(name, start, end, cell)

    def _add(self, name, start, end, cell) -> int:
        parent = self._open[-1] if self._open else None
        self.spans.append({"name": name, "start": start, "end": end, "parent": parent, "cell": cell})
        return len(self.spans) - 1

    def durations(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def total(self, name: str) -> float:
        return sum(self.durations(name))

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: duration minus its children's.

        Children of one span never overlap, because the traced work runs
        on one thread, so their durations add up.
        """
        child_time = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        out = defaultdict(float)
        for index, s in enumerate(self.spans):
            out[s["name"]] += s["end"] - s["start"] - child_time[index]
        return dict(out)

    def roots(self, name: str) -> list[int]:
        return [i for i, s in enumerate(self.spans) if s["parent"] is None and s["name"] == name]

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for index, s in enumerate(self.spans):
                fh.write(json.dumps({"id": index, **s}) + "\n")

"""In-memory spans recorded around calls into the package's layers.

A span has a name, start and end (seconds on the perf counter since the
tracer was made), the index of its parent span and the trace it belongs to
(one traced pass = one trace). Counts are recorded at the same boundaries.
Spans stay in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    def __init__(self) -> None:
        self.t0 = time.perf_counter()
        self.spans: list[dict] = []
        self.counts: dict[str, list] = {}
        self.trace_id = 0
        self._stack: list[int] = []

    def new_trace(self) -> None:
        self.trace_id += 1

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        rec = {"name": name, "trace": self.trace_id,
               "parent": self._stack[-1] if self._stack else None,
               "start": time.perf_counter() - self.t0, "end": None}
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            yield rec
        finally:
            self._stack.pop()
            rec["end"] = time.perf_counter() - self.t0

    def count(self, name: str, value) -> None:
        self.counts.setdefault(name, []).append(value)

    def seconds(self, name: str, trace: int | None = None) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans
                if s["name"] == name and s["end"] is not None
                and (trace is None or s["trace"] == trace)]

    def median_seconds(self, name: str) -> float:
        return statistics.median(self.seconds(name))

    def last_count(self, name: str):
        return self.counts[name][-1]

    def dump(self, path: Path, meta: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"meta": meta, "spans": self.spans, "counts": self.counts}, indent=1))

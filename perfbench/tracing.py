"""Spans recorded around calls into the program, kept in memory.

A span has a name, a start, an end, the span that caused it and the run id
shared by every span of one benchmark run.  Spans are written out once, at
the end of the run.  With tracing off, ``span`` is a shared no-op context so
the untraced loops pay nothing but a call.
"""

from __future__ import annotations

import contextlib
import json
import time
import uuid
from collections import defaultdict
from pathlib import Path


class Tracer:
    """Records nested spans on one thread."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.run_id = uuid.uuid4().hex
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def _record(self, name: str):
        record = {
            "run": self.run_id,
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def span(self, name: str):
        return self._record(name) if self.enabled else contextlib.nullcontext()

    def durations(self, name: str) -> list[float]:
        """Seconds of every finished span called ``name``."""
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name and s["end"]]

    def self_times(self) -> dict[str, tuple[int, float]]:
        """Per span name: (count, total self seconds).

        Self time is a span's duration minus the time its child spans cover;
        children of one span never overlap on a single thread.
        """
        child_time = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None and s["end"]:
                child_time[s["parent"]] += s["end"] - s["start"]
        totals: dict[str, list] = {}
        for s in self.spans:
            if not s["end"]:
                continue
            entry = totals.setdefault(s["name"], [0, 0.0])
            entry[0] += 1
            entry[1] += s["end"] - s["start"] - child_time[s["id"]]
        return {name: (n, t) for name, (n, t) in totals.items()}

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")

"""In-memory span recorder for the benchmark's traced runs.

A span is (name, start, end, parent, run id).  Spans are kept in flat lists
while the workload runs and written out once, when it ends.  The benchmark
records spans around every public rachopt call it makes, and around the
calls rachopt makes through its two public hooks (``throughput_fn`` of the
bandit and ``opt`` of ``build_compact``).
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path
from time import perf_counter


class NullTracer:
    """Calls straight through; used for every measurement with tracing off."""

    enabled = False
    run_id = "setup"

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)


class Tracer:
    """Records one span per :meth:`call`; nested calls get the enclosing
    span as parent."""

    enabled = True

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.runs: list[str] = []
        self.run_id = "setup"
        self._open: list[int] = []

    def call(self, name, fn, *args, **kwargs):
        sid = len(self.names)
        self.names.append(name)
        self.parents.append(self._open[-1] if self._open else -1)
        self.runs.append(self.run_id)
        self.ends.append(0.0)
        self._open.append(sid)
        self.starts.append(perf_counter())
        try:
            return fn(*args, **kwargs)
        finally:
            self.ends[sid] = perf_counter()
            self._open.pop()

    def wrap(self, name, fn):
        """``fn`` with a span around every call, for passing as a hook."""

        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced

    def durations(self, name: str, run_ids=None) -> list[float]:
        return [
            e - s
            for n, s, e, r in zip(self.names, self.starts, self.ends, self.runs)
            if n == name and (run_ids is None or r in run_ids)
        ]

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover.

        Spans come from one thread, so children never overlap and the
        covered part is the sum of their durations.
        """
        own = [e - s for s, e in zip(self.starts, self.ends)]
        for sid, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= self.ends[sid] - self.starts[sid]
        return own

    def table(self, run_ids=None) -> dict[str, dict[str, float]]:
        """Per span name: calls, busy seconds and self seconds."""
        rows: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0}
        )
        for sid, own in enumerate(self.self_times()):
            if run_ids is not None and self.runs[sid] not in run_ids:
                continue
            row = rows[self.names[sid]]
            row["calls"] += 1
            row["busy_s"] += self.ends[sid] - self.starts[sid]
            row["self_s"] += own
        return dict(rows)

    def dump(self, path: Path) -> None:
        """Write every span as one JSON document."""
        spans = [
            [sid, n, s, e, p, r]
            for sid, (n, s, e, p, r) in enumerate(
                zip(self.names, self.starts, self.ends, self.parents, self.runs)
            )
        ]
        doc = {"columns": ["id", "name", "start", "end", "parent", "run"], "spans": spans}
        path.write_text(json.dumps(doc) + "\n")

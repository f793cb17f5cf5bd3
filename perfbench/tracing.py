"""In-memory spans recorded around the benchmark's calls into each layer.

A span is (name, start_ns, end_ns, parent span id, query id).  Timestamps are
the thread's CPU clock, the clock the benchmark times everything with.  Spans
stay in memory until the run ends; ``write`` dumps them as JSON lines.  A
span's self time is its duration minus the durations of its direct children,
which never overlap because the benchmark is single-threaded.
"""

from __future__ import annotations

import contextlib
import json
import time

_NULL = contextlib.nullcontext()


class NullTracer:
    """Stands in for Tracer in untraced runs; records nothing."""

    def span(self, name, qid=None):
        return _NULL


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []

    @contextlib.contextmanager
    def span(self, name, qid=None):
        record = [name, 0, 0, self._stack[-1] if self._stack else -1, qid]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = time.thread_time_ns()
        try:
            yield
        finally:
            record[2] = time.thread_time_ns()
            self._stack.pop()

    def self_times_ns(self):
        """Per span name, the list of self times in recording order."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out.setdefault(name, []).append(end - start - child_ns[i])
        return out

    def write(self, path):
        with open(path, "w") as fh:
            for i, (name, start, end, parent, qid) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start_ns": start,
                                     "end_ns": end, "parent": parent, "qid": qid}) + "\n")

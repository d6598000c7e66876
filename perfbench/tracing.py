"""Spans around the benchmark's calls into the package's layers.

A span is ``[name, start_ns, end_ns, parent, instance]``: ``parent`` is the
index of the enclosing span (-1 at top level) and ``instance`` the position of
the benchmark instance it belongs to.  Spans stay in memory and are written
out once, when the run ends.  ``NullTracer`` has the same interface and
records nothing; the untraced run uses it.
"""

from __future__ import annotations

import json
from contextlib import nullcontext
from time import perf_counter_ns


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.instance = -1
        self._open = -1

    def begin(self, name: str) -> int:
        self.spans.append([name, perf_counter_ns(), 0, self._open, self.instance])
        self._open = len(self.spans) - 1
        return self._open

    def end(self, sid: int) -> None:
        span = self.spans[sid]
        span[2] = perf_counter_ns()
        self._open = span[3]

    def call(self, name: str, fn, *args, **kwargs):
        sid = self.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end(sid)

    def span(self, name: str) -> "_Span":
        return _Span(self, name)

    def totals(self) -> dict[str, tuple[int, int]]:
        """Per span name: (calls, self time in ns).  Self time is a span's
        duration minus the durations of its direct children."""
        child_ns = [0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict[str, tuple[int, int]] = {}
        for k, (name, start, end, _, _) in enumerate(self.spans):
            calls, self_ns = out.get(name, (0, 0))
            out[name] = (calls + 1, self_ns + end - start - child_ns[k])
        return out

    def write_jsonl(self, path) -> None:
        keys = ("name", "start_ns", "end_ns", "parent", "instance")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


class _Span:
    __slots__ = ("tracer", "name", "sid")

    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> None:
        self.sid = self.tracer.begin(self.name)

    def __exit__(self, *exc) -> None:
        self.tracer.end(self.sid)


_NO_SPAN = nullcontext()


class NullTracer:
    instance = -1

    def begin(self, name: str) -> int:
        return -1

    def end(self, sid: int) -> None:
        pass

    def call(self, name: str, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def span(self, name: str):
        return _NO_SPAN

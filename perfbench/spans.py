"""In-memory spans recorded from the benchmark's own code.

A span is ``(id, name, start, end, parent, job)``: the parent is the
span open on the same thread when this one started, and every span of
one job carries that job's id.  Spans stay in memory and are written
out once, when the run ends.  A layer's *self time* is its span's
duration minus the part of it covered by its child spans.

Untraced runs use :data:`NO_SPANS`, whose ``span`` is a shared no-op
context manager, so the timed code is the same in both modes.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import threading
import time
from collections import defaultdict
from typing import Dict, Iterator, List


class SpanRecorder:
    """Collects spans; ``job`` ids group the spans of one job."""

    enabled = True

    def __init__(self) -> None:
        self.spans: List[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self.job: int | None = None

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[int]:
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield span_id
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((span_id, name, start, end, parent, self.job))

    def add(self, name: str, start: float, end: float) -> None:
        """Record a span timed by the caller (e.g. inside a coroutine),
        as a child of whatever span is open on this thread."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        self.spans.append((next(self._ids), name, start, end, parent, self.job))

    def self_times(self) -> Dict[str, List[float]]:
        """``{name: [self seconds, ...]}`` over every recorded span."""
        children: Dict[int, list] = defaultdict(list)
        for span_id, _, start, end, parent, _ in self.spans:
            if parent is not None:
                children[parent].append((start, end))
        out: Dict[str, List[float]] = defaultdict(list)
        for span_id, name, start, end, _, _ in self.spans:
            covered = 0.0
            cursor = start
            for c_start, c_end in sorted(children.get(span_id, ())):
                c_start, c_end = max(c_start, cursor), min(c_end, end)
                if c_end > c_start:
                    covered += c_end - c_start
                    cursor = c_end
            out[name].append(end - start - covered)
        return out

    def write(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump(
                [
                    {"id": s, "name": n, "start": a, "end": b, "parent": p, "job": j}
                    for s, n, a, b, p, j in self.spans
                ],
                handle,
            )


class _NoSpans:
    """The untraced recorder: every span is the same no-op."""

    enabled = False
    job = None
    _null = contextlib.nullcontext()

    def span(self, name: str):
        return self._null

    def add(self, name: str, start: float, end: float) -> None:
        pass


NO_SPANS = _NoSpans()

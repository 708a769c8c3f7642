"""Outside-in span tracer.

The tracer replaces library functions with thin wrappers that record one span
per call: a name, a start and end time, the index of the enclosing span, and an
optional byte count computed from the call's result.  Spans stay in memory
until the run ends.  A span's self time is its duration minus the durations of
its direct children; in a single thread children never overlap, so the self
times of a span's subtree add up to the span's duration exactly.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time

# Span record layout: [name, start, end, parent index (-1 for a root), bytes].
NAME, START, END, PARENT, NBYTES = range(5)


class Tracer:
    """In-memory span recorder; patch() swaps in wrappers, uninstall() restores them."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(index)
        self.spans.append([name, self.clock(), 0.0, parent, 0])
        return index

    def end(self, index: int) -> None:
        self.spans[index][END] = self.clock()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {index} ended while span {popped} was open")

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself around a block."""
        index = self.begin(name)
        try:
            yield
        finally:
            self.end(index)

    def wrap(self, name: str, fn, measure=None):
        """A stand-in for ``fn`` that records a span named ``name`` per call.

        ``measure(args, result)`` returns a byte count stored on the span.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(index)
            if measure is not None:
                self.spans[index][NBYTES] = measure(args, result)
            return result

        return traced

    # -- patching ------------------------------------------------------------

    def patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output --------------------------------------------------------------

    def write(self, path) -> None:
        """Write every span as one JSON document: {"spans": [[name, start, end, parent, bytes], ...]}."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "bytes"], "spans": self.spans}, fh)


def self_times(spans: list[list]) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def roots(spans: list[list]) -> list[int]:
    """Index of the outermost enclosing span of each span (itself for a root)."""
    out: list[int] = []
    for i, s in enumerate(spans):
        out.append(i if s[PARENT] < 0 else out[s[PARENT]])
    return out


def nesting_violations(spans: list[list]) -> int:
    """Spans that start before or end after their parent, or end before they start."""
    bad = 0
    for s in spans:
        if s[END] < s[START]:
            bad += 1
        elif s[PARENT] >= 0:
            p = spans[s[PARENT]]
            if s[START] < p[START] or s[END] > p[END]:
                bad += 1
    return bad

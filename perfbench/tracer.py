"""Span recorder that wraps a program's public functions from outside.

Each wrapped function is replaced at the module attribute its callers
look up, so calls made inside the package are seen too.  A span records
(id, name, tag, start, end, parent, operation, aggregated child time,
raised).  Functions called too often to keep one span per call are
wrapped with `aggregate=True`: they add to a per-(name, operation)
count and time, and their time counts as covered in the enclosing span.
Aggregated functions must be leaves: they may not call a wrapped
function themselves.

Spans stay in memory; `dump` writes them out once, at the end.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from time import perf_counter_ns

ID, NAME, TAG, START, END, PARENT, OP, AGG, RAISED = range(9)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.aggregates: dict[tuple[str, int | None], list[int]] = {}
        self._stack: list[int] = []
        self._op: int | None = None
        self._ops = 0
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, module, attr: str, name: str, tag=None, aggregate: bool = False) -> None:
        """Replace module.attr by a recording wrapper.

        A missing or non-callable attribute raises: a renamed function
        must never read as zero calls.
        """
        original = getattr(module, attr)  # AttributeError when renamed away
        if not callable(original):
            raise TypeError(f"{module.__name__}.{attr} is not callable")
        wrapper = self._aggregating(original, name) if aggregate else self._spanning(original, name, tag)
        setattr(module, attr, wrapper)
        self._restore.append((module, attr, original))

    def unwrap_all(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def _spanning(self, original, name, tag):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            rec = [len(spans), name, tag(*args) if tag else None, 0, 0,
                   stack[-1] if stack else None, self._op, 0, False]
            spans.append(rec)
            stack.append(rec[ID])
            rec[START] = perf_counter_ns()
            try:
                return original(*args, **kwargs)
            except BaseException:
                rec[RAISED] = True
                raise
            finally:
                rec[END] = perf_counter_ns()
                stack.pop()

        return wrapper

    def _aggregating(self, original, name):
        spans, stack, aggregates = self.spans, self._stack, self.aggregates

        def wrapper(*args, **kwargs):
            start = perf_counter_ns()
            try:
                return original(*args, **kwargs)
            finally:
                took = perf_counter_ns() - start
                agg = aggregates.setdefault((name, self._op), [0, 0])
                agg[0] += 1
                agg[1] += took
                if stack:
                    spans[stack[-1]][AGG] += took

        return wrapper

    @contextmanager
    def operation(self, name: str, tag=None):
        """Root span of one measured operation; nested spans share its id."""
        self._ops += 1
        self._op = self._ops
        rec = [len(self.spans), name, tag, 0, 0, None, self._op, 0, False]
        self.spans.append(rec)
        self._stack.append(rec[ID])
        rec[START] = perf_counter_ns()
        try:
            yield rec
        except BaseException:
            rec[RAISED] = True
            raise
        finally:
            rec[END] = perf_counter_ns()
            self._stack.pop()
            self._op = None

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "fields": ["id", "name", "tag", "start_ns", "end_ns", "parent",
                               "op", "aggregated_child_ns", "raised"],
                    "spans": self.spans,
                    "aggregates": [[n, op, c, t] for (n, op), (c, t) in self.aggregates.items()],
                },
                handle,
            )


def covered(intervals, lo: int, hi: int) -> int:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, reach = 0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans) -> dict[int, int]:
    """Span id -> duration minus the part its children cover, in ns."""
    children: dict[int, list[tuple[int, int]]] = {}
    for s in spans:
        if s[PARENT] is not None:
            children.setdefault(s[PARENT], []).append((s[START], s[END]))
    return {
        s[ID]: s[END] - s[START] - covered(children.get(s[ID], ()), s[START], s[END]) - s[AGG]
        for s in spans
    }

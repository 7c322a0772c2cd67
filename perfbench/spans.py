"""In-memory spans around the package's public functions.

The benchmark wraps each traced function from outside the package.  Because
``cli``, ``harness`` and ``estimator`` bind these names with
``from ... import``, every module attribute that refers to the original
function is replaced, not only the one in the defining module.

A span's self time is its duration minus the durations of its direct child
spans.  Children run inside their parent on the same thread, so the part of
the parent's interval they cover is the sum of their durations.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    child_s: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class Tracer:
    """Records one span per call of each wrapped function, plus named counts.

    A wrapped function may carry a ``count(tracer, args, kwargs, result)``
    hook; it runs after the span closes, so the tracer's own bookkeeping is
    not charged to the traced layer.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.seen: dict[str, set] = {}
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, fn, *args, **kwargs):
        """Run ``fn`` inside a span named ``name`` and return its result."""
        stack = self._stack()
        span = Span(name, self.clock(), parent=stack[-1] if stack else -1)
        self.spans.append(span)
        stack.append(len(self.spans) - 1)
        try:
            return fn(*args, **kwargs)
        finally:
            span.end = self.clock()
            stack.pop()
            if span.parent >= 0:
                self.spans[span.parent].child_s += span.duration

    def wrap(self, name, fn, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if count is not None:
                count(self, args, kwargs, result)
            return result

        return traced

    def distinct(self, key: str, item) -> None:
        """Remember ``item`` in the set named ``key``."""
        self.seen.setdefault(key, set()).add(item)

    def totals(self) -> dict:
        """{span name: (calls, self seconds)} over every recorded span."""
        out: dict = {}
        for span in self.spans:
            calls, self_s = out.get(span.name, (0, 0.0))
            out[span.name] = (calls + 1, self_s + span.self_s)
        return out


def patch(tracer: Tracer, targets: dict, package: str = "blockshrink"):
    """Wrap each ``"module.function"`` key of ``targets`` wherever the package binds it.

    ``targets`` maps the name to its count hook or None.  Returns a function
    that restores every replaced attribute.  A target the package no longer
    defines is skipped, and its counts read zero.
    """
    prefix = package + "."
    loaded = [m for n, m in list(sys.modules.items()) if n == package or n.startswith(prefix)]
    undo = []
    for target, count in targets.items():
        module_name, func_name = target.rsplit(".", 1)
        original = getattr(sys.modules.get(prefix + module_name), func_name, None)
        if original is None:
            continue
        traced = tracer.wrap(target, original, count)
        for module in loaded:
            if getattr(module, func_name, None) is original:
                setattr(module, func_name, traced)
                undo.append((module, func_name, original))

    def restore():
        for module, func_name, original in reversed(undo):
            setattr(module, func_name, original)

    return restore

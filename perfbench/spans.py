"""In-memory spans around calls into eitats, recorded from the benchmark side.

A span has a name, a start, an end and the index of the span that was open
when it started (its parent).  Spans live in a list and are summarised when
the traced pass ends; nothing is written while the workload runs.

Functions are wrapped at the module attribute their caller looks up (for
example ``eitats.model_selection.fit_eit_model``, which ``discriminate``
resolves through its module globals), so no file of the library changes.
Hot leaf functions, such as the model evaluation inside the fit loop, get a
counter instead of a span to keep the tracing overhead small.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of ``intervals`` (pairs)."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans) -> list[float]:
    """Per span: its duration minus the part of it its child spans cover."""
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    return [span.duration - covered_length(children[i], span.start, span.end)
            for i, span in enumerate(spans)]


class Tracer:
    """Collects spans and counters for one traced pass."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        """Record the enclosed block as a span; yields the span's attrs."""
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        record = Span(name, 0.0, 0.0, parent)
        self.spans.append(record)
        self._open.append(index)
        record.start = self.clock()
        try:
            yield record.attrs
        except BaseException:
            record.attrs["error"] = True
            raise
        finally:
            record.end = self.clock()
            self._open.pop()

    def wrap_span(self, fn, name: str, on_result=None):
        """``fn`` recorded as span ``name``; ``on_result(attrs, args, kwargs,
        result)`` may annotate the span with counts read off the call."""
        def wrapper(*args, **kwargs):
            with self.span(name) as attrs:
                result = fn(*args, **kwargs)
                if on_result is not None:
                    on_result(attrs, args, kwargs, result)
            return result
        return wrapper

    def wrap_count(self, fn, name: str):
        """``fn`` with a call counter only (for hot leaf functions)."""
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def named(self, name: str) -> list[int]:
        return [i for i, span in enumerate(self.spans) if span.name == name]


@contextmanager
def patched(replacements):
    """Set ``module.attr`` to ``make(original)`` for each ``(module, attr,
    make)`` triple for the duration of the block, then restore them all.
    Attributes the module does not have are skipped."""
    saved = []
    try:
        for module_name, attr, make in replacements:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                # a layer the program no longer has reads as zero calls
                print(f"perfbench: {module_name}.{attr} not found; not traced",
                      file=sys.stderr)
                continue
            saved.append((module, attr, original))
            setattr(module, attr, make(original))
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)

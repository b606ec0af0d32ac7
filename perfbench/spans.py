"""In-memory spans and counters for the traced benchmark run.

A wrapper is installed at the module (or class) attribute that a caller
looks a function up from, so the caller's next lookup finds the wrapper.
Each wrapped call records a span (name, start, end, parent) in memory;
``Patcher.restore`` puts every original attribute back.  The untraced run
installs nothing.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span in Tracer.spans


class Tracer:
    """Records nested spans and named counters of one traced pass."""

    def __init__(self, clock=time.perf_counter):
        self.spans = []
        self.counts = {}
        self._stack = []
        self._clock = clock

    def count(self, name, n=1):
        self.counts[name] = self.counts.get(name, 0) + n

    def call(self, name, func, /, *args, **kwargs):
        """Run func(*args, **kwargs) inside a span called name."""
        parent = self._stack[-1] if self._stack else None
        span = Span(name, self._clock(), 0.0, parent)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            return func(*args, **kwargs)
        finally:
            span.end = self._clock()
            self._stack.pop()


def self_times(spans):
    """Per-name sum of span duration minus the durations of direct children."""
    child = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            child[span.parent] += span.end - span.start
    out = {}
    for i, span in enumerate(spans):
        out[span.name] = out.get(span.name, 0.0) + (span.end - span.start) - child[i]
    return out


def total_times(spans):
    """Per-name inclusive time; a span inside a span of its own name counts once."""
    out = {}
    for span in spans:
        parent = span.parent
        while parent is not None and spans[parent].name != span.name:
            parent = spans[parent].parent
        if parent is None:
            out[span.name] = out.get(span.name, 0.0) + span.end - span.start
    return out


def span_counts(spans):
    out = {}
    for span in spans:
        out[span.name] = out.get(span.name, 0) + 1
    return out


class Patcher:
    """Replaces attributes with wrappers and restores the originals."""

    def __init__(self):
        self._saved = []

    def wrap(self, owner, attr, make_wrapper):
        original = vars(owner)[attr]
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make_wrapper(original))

    def restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def spanned(tracer, name, on_result=None, on_error=None):
    """Wrapper factory: time each call as a span and hand results to hooks.

    on_result(result, kwargs) sees every return value; on_error(exc) sees
    every exception, which is then re-raised unchanged.
    """

    def make(func):
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            try:
                result = tracer.call(name, func, *args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(exc)
                raise
            if on_result is not None:
                on_result(result, kwargs)
            return result

        return wrapper

    return make


def counted(tracer, name):
    """Wrapper factory: count calls without a span, for very hot functions."""

    def make(func):
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            tracer.count(name)
            return func(*args, **kwargs)

        return wrapper

    return make

"""Span recording for the traced benchmark pass.

Spans are recorded from the benchmark's side of each layer boundary: the
module attributes that callers look up at call time are rebound to
wrappers for the duration of a traced pass and restored afterwards.  The
program itself carries no tracing code.

A span is ``(name, start, end, parent)``; ``parent`` is the index of the
enclosing span or -1.  A layer's self time is its spans' durations minus
the durations of their direct children.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

from linview import enforce, membership, trace, views
from linview.seqspec import SeqSpec

clock = time.perf_counter

#: (module, attribute, span name) rebound during a traced pass.  Callers
#: resolve each attribute through its module at call time:
#: ``enforce.snap_and_check`` calls ``decode_items`` and ``build_history``
#: as globals of ``enforce``, ``views.build_history`` calls
#: ``validate_views`` as a global of ``views``, ``lin_object``'s predicate
#: calls ``is_linearizable`` as a global of ``membership``, and the
#: benchmark itself calls ``trace.parse_history`` through the module.
TRACED = (
    (enforce, "decode_items", "enforce.decode_items"),
    (enforce, "build_history", "views.build_history"),
    (views, "validate_views", "views.validate_views"),
    (membership, "is_linearizable", "membership.is_linearizable"),
    (trace, "parse_history", "trace.parse_history"),
)


class Tracer:
    """Keeps spans in memory; nothing is written until the pass ends."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int] | None] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(idx)
        start = clock()
        try:
            yield
        finally:
            end = clock()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent)

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    @contextmanager
    def installed(self):
        """Rebind every ``TRACED`` attribute to a span-recording wrapper."""
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in TRACED]
        for mod, attr, name in TRACED:
            setattr(mod, attr, self.wrap(name, getattr(mod, attr)))
        try:
            yield self
        finally:
            for mod, attr, fn in saved:
                setattr(mod, attr, fn)

    def self_times(self) -> dict[str, float]:
        """Seconds of self time per span name."""
        own: dict[str, float] = {}
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for (name, start, end, _), sub in zip(self.spans, child):
            own[name] = own.get(name, 0.0) + (end - start) - sub
        return own


class CountingSpec:
    """A spec whose transitions are counted: the search-work count."""

    def __init__(self, spec: SeqSpec):
        self.calls = 0
        delta = spec.delta

        def counting_delta(state, op):
            self.calls += 1
            return delta(state, op)

        self.spec = SeqSpec(spec.name, spec.initial, counting_delta)

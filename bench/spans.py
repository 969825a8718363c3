"""In-memory spans around calls that cross a layer boundary.

A Tracer replaces chosen function references in chosen namespaces by
wrappers that record one span per call: name, layer, start, end, parent
span, query id, error flag and size attributes.  Nothing is written while
spans are recorded; the caller dumps them at the end of the run.

Self time of a span is its duration minus the part of that interval covered
by its child spans.  Calls are recorded from one thread, so children of a
span never overlap each other, but the union is taken anyway so that the
arithmetic does not depend on that.
"""

from __future__ import annotations

import functools
import inspect
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    sid: int
    name: str
    layer: str
    start: float
    parent: int | None
    query: str | None
    end: float = 0.0
    error: bool = False
    attrs: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "id": self.sid,
            "name": self.name,
            "layer": self.layer,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "query": self.query,
            "error": self.error,
            "attrs": self.attrs,
        }


class Tracer:
    """Records spans for wrapped calls; install() and uninstall() swap the
    wrappers in and out of module namespaces.

    attrs_of(name, args, kwargs, result) returns the size attributes of a
    finished call (result is None when the call raised).
    """

    def __init__(self, attrs_of=None, clock=time.perf_counter):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._attrs_of = attrs_of
        self._clock = clock
        self._installed: list[tuple[object, str, object]] = []
        self._wrappers: dict[int, object] = {}
        self.query: str | None = None

    def begin(self, name: str, layer: str, attrs: dict | None = None) -> Span:
        parent = self._stack[-1].sid if self._stack else None
        span = Span(len(self.spans), name, layer, self._clock(), parent, self.query, attrs=dict(attrs or {}))
        self.spans.append(span)
        self._stack.append(span)
        return span

    def finish(self, span: Span) -> None:
        span.end = self._clock()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    @contextmanager
    def root(self, query: str, name: str, layer: str, attrs: dict | None = None):
        """A top-level span for one unit of benchmark work."""
        self.query = query
        span = self.begin(name, layer, attrs)
        try:
            yield span
        except BaseException:
            span.error = True
            raise
        finally:
            self.finish(span)
            self.query = None

    def wrap(self, fn, layer: str):
        key = id(fn)
        if key in self._wrappers:
            return self._wrappers[key]
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            if stack and stack[-1].layer == layer:
                # A layer calling back into itself (say, through a function
                # passed as an argument) crosses no boundary.
                return fn(*args, **kwargs)
            span = tracer.begin(name, layer)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException:
                span.error = True
                raise
            finally:
                tracer.finish(span)
                if tracer._attrs_of is not None:
                    span.attrs.update(tracer._attrs_of(name, args, kwargs, result))

        self._wrappers[key] = traced
        return traced

    def install(self, namespaces, layer_of) -> None:
        """Wrap every public plain function that a namespace holds but does
        not define, when layer_of(fn) names a layer for it.

        Calls inside one module go through that module's own globals, which
        are left alone, so each span is a call that crosses a layer boundary.
        Classes, generator functions and cached wrappers are not plain
        functions and stay unwrapped; their time counts toward the caller.
        """
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if not inspect.isfunction(value) or attr.startswith("_"):
                    continue
                if inspect.isgeneratorfunction(value) or value.__module__ == ns.__name__:
                    continue
                layer = layer_of(value)
                if layer is None:
                    continue
                setattr(ns, attr, self.wrap(value, layer))
                self._installed.append((ns, attr, value))

    def uninstall(self) -> None:
        for ns, attr, value in reversed(self._installed):
            setattr(ns, attr, value)
        self._installed.clear()


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        cursor = s.start
        for c in sorted(children.get(s.sid, ()), key=lambda c: c.start):
            lo, hi = max(c.start, cursor), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s.sid] = (s.end - s.start) - covered
    return out

"""Tracing: spans with context propagation.

A :class:`Tracer` maintains a per-thread stack of open spans;
``tracer.span(name)`` opens a child of whatever span is currently active,
so a single write can be traced client → router → consensus → shard
engine → replication without threading a context object through every
call. A span is its own context manager: entering it links it under its
parent and reads the clock; leaving it reads the clock and pops it.
Finished root spans are kept in a ring of the last
:data:`MAX_FINISHED_TRACES` so long-running processes never accumulate
span trees — the slow log in :mod:`repro.obsv` references recent traces
through :meth:`Tracer.recent_traces`, and ``ESDB.explain_analyze`` hands
one back as its result.

Ids are derived when read, never while an operation runs. A traced root
holds its operation's :class:`~repro.telemetry.context.TraceContext`
(whose ids are hashed on first read); a child records only its position —
its parent's position, its index among its parent's children and its name
— and its span id is :func:`~repro.telemetry.context.derive_span_id` of
that position, computed on first read and kept in the position, so each
span hashes at most once. A tree therefore reads the same ids whenever it
is read, and an operation nobody inspects hashes nothing. No span
references its parent or its root, and a span drops its tracer when it
closes, so reference counting alone frees a tree the ring drops.

The disabled mode in :mod:`repro.telemetry.runtime` hands out spans that
time their operation and record nothing.
"""

from __future__ import annotations

import threading
from collections import deque
from time import perf_counter
from typing import Any, Iterator

from repro.telemetry.context import _ACTIVE, TraceContext, derive_span_id

#: Finished root spans retained per tracer (old traces are discarded).
MAX_FINISHED_TRACES = 128


def _position_ids(position) -> tuple[str | None, str | None]:
    """``(trace_id, span_id)`` of a span *position*: None (untraced), a
    traced root's context, or a child's ``[parent position, index, name,
    ids]``, whose ``ids`` slot caches the pair once it is first derived."""
    if position is None:
        return None, None
    if type(position) is not list:
        return position.trace_id, position.span_id
    ids = position[3]
    if ids is None:
        parent, index, name, _ = position
        trace_id, parent_span_id = _position_ids(parent)
        ids = position[3] = (
            trace_id, derive_span_id(trace_id, parent_span_id, index, name)
        )
    return ids


class Span:
    """One timed stage of an operation, with tags and child spans.

    ``trace_id``/``span_id`` are derived from the span's position when read
    (see the module docstring); they are None for a tree whose root carries
    no :class:`~repro.telemetry.context.TraceContext`.
    """

    __slots__ = ("name", "tags", "start", "end", "children", "_tracer", "_position")

    def __init__(
        self, name: str, tags: dict | None = None, tracer: "Tracer | None" = None
    ) -> None:
        self.name = name
        self.tags = tags if tags is not None else {}
        self.start = 0.0
        self.end: float | None = None
        self.children: list[Span] = []
        self._tracer = tracer
        self._position = None

    def __enter__(self) -> "Span":
        stack = self._tracer._local.stack
        if stack:
            parent = stack[-1]
            siblings = parent.children
            position = parent._position
            if position is not None:
                self._position = [position, len(siblings), self.name, None]
            siblings.append(self)
        stack.append(self)
        self.start = perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.end = perf_counter()
        if exc_type is not None:
            _tag_error(self, exc_type)
        tracer = self._tracer
        stack = tracer._local.stack
        if stack and stack[-1] is self:
            stack.pop()
        if not stack:
            tracer.finished.append(self)
        # The ring holds its roots: a finished span must not hold the ring.
        self._tracer = None

    @property
    def trace_id(self) -> str | None:
        position = self._position
        while type(position) is list:
            position = position[0]
        return None if position is None else position.trace_id

    @property
    def span_id(self) -> str | None:
        return _position_ids(self._position)[1]

    @property
    def duration(self) -> float:
        """Seconds from start to finish (0.0 while still open)."""
        if self.end is None:
            return 0.0
        return self.end - self.start

    def walk(self) -> Iterator["Span"]:
        """Pre-order traversal of this span and all descendants."""
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, name: str) -> "Span | None":
        """First descendant (or self) whose name equals *name*."""
        for span in self.walk():
            if span.name == name:
                return span
        return None

    def to_dict(self) -> dict:
        """JSON-ready representation of the span tree."""
        out: dict[str, Any] = {"name": self.name, "duration": self.duration}
        trace_id, span_id = _position_ids(self._position)
        if trace_id is not None:
            out["trace_id"] = trace_id
            out["span_id"] = span_id
        if self.tags:
            out["tags"] = {str(k): str(v) for k, v in self.tags.items()}
        if self.children:
            out["children"] = [child.to_dict() for child in self.children]
        return out

    def render(self, indent: int = 0) -> str:
        """Human-readable tree with per-stage timings."""
        tag_text = (
            " {" + ", ".join(f"{k}={v}" for k, v in self.tags.items()) + "}"
            if self.tags
            else ""
        )
        lines = [f"{'  ' * indent}{self.name}: {self.duration * 1000:.3f} ms{tag_text}"]
        for child in self.children:
            lines.append(child.render(indent + 1))
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Span({self.name!r}, {self.duration * 1000:.3f}ms, {len(self.children)} children)"


class _TracedRoot(Span):
    """Root span of one traced operation: its position is the operation's
    context, which it makes the thread's active context while it is open
    (so :func:`~repro.telemetry.context.current_context` sees it inside the
    operation)."""

    __slots__ = ("_outer",)

    def __enter__(self) -> Span:
        self._outer = getattr(_ACTIVE, "context", None)
        _ACTIVE.context = self._position
        return Span.__enter__(self)

    def __exit__(self, exc_type, exc, tb) -> None:
        _ACTIVE.context = self._outer
        Span.__exit__(self, exc_type, exc, tb)


def _tag_error(span: Span, exc_type: type) -> None:
    """Uniform error tagging, identical on every exit path: ``error`` is
    always the boolean True and the exception class goes to ``error_type``
    (setdefault, so a deliberate tag survives re-raises through parents)."""
    span.tags["error"] = True
    span.tags.setdefault("error_type", exc_type.__name__)


class _Stacks(threading.local):
    """One open-span stack per thread."""

    def __init__(self) -> None:
        self.stack: list[Span] = []


class Tracer:
    """Opens nested spans and collects finished traces.

    The open-span stack *is* the propagated context. The stack is kept
    per-thread (thread-local) because user threads may share one
    instance: spans opened on one thread nest under that thread's own
    root and never parent across threads; the ``finished`` ring buffer is
    shared (deque appends are atomic).
    """

    enabled = True

    def __init__(self) -> None:
        self._local = _Stacks()
        self.finished: deque = deque(maxlen=MAX_FINISHED_TRACES)

    def span(self, name: str, **tags) -> Span:
        """Open a span named *name* as a child of the current span."""
        return Span(name, tags, self)

    def trace(self, name: str, context: TraceContext | None = None, **tags) -> Span:
        """Open the root span of one traced operation.

        With ``context=None`` (tracing disabled) this behaves exactly like
        :meth:`span` — no ids — so the pre-trace span trees and chaos
        fingerprints are bit-identical.
        """
        if context is None:
            return Span(name, tags, self)
        root = _TracedRoot(name, tags, self)
        root._position = context
        return root

    @property
    def current(self) -> Span | None:
        """The innermost open span, or None outside any trace."""
        stack = self._local.stack
        return stack[-1] if stack else None

    def last_trace(self) -> Span | None:
        """The most recently finished root span."""
        return self.finished[-1] if self.finished else None

    def find_trace(self, trace_id: str) -> Span | None:
        """The most recent retained root span for *trace_id*, or None."""
        for span in reversed(self.finished):
            if span.trace_id == trace_id:
                return span
        return None

    def recent_traces(self, n: int | None = None) -> list[Span]:
        """The last *n* finished root spans, oldest first (all retained
        traces when *n* is None). The retention cap bounds both memory and
        the answer's length."""
        spans = list(self.finished)
        if n is None or n >= len(spans):
            return spans
        return spans[len(spans) - n:]

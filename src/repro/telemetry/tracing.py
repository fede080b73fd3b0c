"""Lightweight tracing: spans with context propagation.

A :class:`Tracer` maintains a stack of open spans; ``tracer.span(name)``
opens a child of whatever span is currently active, so a single write can
be traced client → router → consensus → shard engine → replication without
threading a context object through every call. Finished root spans are kept
in a bounded ring buffer (:data:`MAX_FINISHED_TRACES` by default,
configurable per tracer) so long-running processes never accumulate span
trees — the slow log in :mod:`repro.obsv` references recent traces through
:meth:`Tracer.recent_traces`, and ``ESDB.explain_analyze`` hands one back
as its result.

Spans are cheap (one object, two clock reads) but not free — the disabled
mode in :mod:`repro.telemetry.runtime` replaces the tracer with a no-op
twin whose ``span()`` returns a shared singleton context manager.
"""

from __future__ import annotations

import hashlib
import threading
import time
from collections import deque
from typing import Any, Callable, Iterator

from repro.telemetry.context import _ACTIVE, TraceContext

#: Finished root spans retained per tracer (old traces are discarded).
MAX_FINISHED_TRACES = 128


class Span:
    """One timed stage of an operation, with tags and child spans.

    ``trace_id``/``span_id`` are assigned when the operation runs under a
    :class:`~repro.telemetry.context.TraceContext` (see :meth:`Tracer.trace`);
    they stay None for bare ``tracer.span`` trees so pre-trace callers see
    no difference.
    """

    __slots__ = ("name", "tags", "start", "end", "children", "trace_id", "span_id")

    def __init__(self, name: str, tags: dict | None = None) -> None:
        self.name = name
        self.tags = tags or {}
        self.start = 0.0
        self.end: float | None = None
        self.children: list[Span] = []
        self.trace_id: str | None = None
        self.span_id: str | None = None

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

    def stage_names(self) -> list[str]:
        """Names of every span in the tree, pre-order."""
        return [span.name for span in self.walk()]

    def find(self, name: str) -> "Span | None":
        """First descendant (or self) whose name equals *name*."""
        for span in self.walk():
            if span.name == name:
                return span
        return None

    def find_prefix(self, prefix: str) -> list["Span"]:
        """All spans in the tree whose name starts with *prefix*."""
        return [span for span in self.walk() if span.name.startswith(prefix)]

    def to_dict(self) -> dict:
        """JSON-ready representation of the span tree."""
        out: dict[str, Any] = {"name": self.name, "duration": self.duration}
        if self.trace_id is not None:
            out["trace_id"] = self.trace_id
        if self.span_id is not None:
            out["span_id"] = self.span_id
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


class _SpanContext:
    """Context manager opening one span under the tracer's current span."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Span:
        tracer = self._tracer
        span = self._span
        parent = tracer._stack[-1] if tracer._stack else None
        if parent is not None:
            parent.children.append(span)
        tracer._stack.append(span)
        span.start = tracer.clock()
        return span

    def __exit__(self, exc_type, exc, tb) -> None:
        tracer = self._tracer
        span = self._span
        span.end = tracer.clock()
        if exc_type is not None:
            _tag_error(span, exc_type)
        stack = tracer._stack
        if stack and stack[-1] is span:
            stack.pop()
        if not stack:
            tracer.finished.append(span)


def _tag_error(span: Span, exc_type: type) -> None:
    """Uniform error tagging, identical on every exit path: ``error`` is
    always the boolean True and the exception class goes to ``error_type``
    (setdefault, so a deliberate tag survives re-raises through parents)."""
    span.tags["error"] = True
    span.tags.setdefault("error_type", exc_type.__name__)


def _assign_span_ids(root: Span, trace_id: str) -> None:
    """Assign deterministic span ids across the finished tree.

    Runs once, at root close — each id is a pure function of (trace_id,
    parent span id, child index, name), so the ids never depend on when a
    span was recorded. The digest is inlined (same formula as
    :func:`~repro.telemetry.context.derive_span_id` — pinned by tests)
    because this runs on every traced operation.
    """
    blake2b = hashlib.blake2b
    root.trace_id = trace_id
    pending = [root]
    while pending:
        parent = pending.pop()
        parent_span_id = parent.span_id
        for index, child in enumerate(parent.children):
            child.trace_id = trace_id
            child.span_id = blake2b(
                f"{trace_id}:{parent_span_id}:{index}:{child.name}".encode("utf-8"),
                digest_size=8,
            ).hexdigest()
            pending.append(child)


class _RootSpanContext(_SpanContext):
    """Root span of one traced operation.

    On enter: stamps the span with the context's ids and activates the
    context on this thread (so
    :func:`~repro.telemetry.context.current_context` sees it inside the
    operation). On exit: restores the thread's previous context and
    finalizes deterministic span ids over the assembled tree.
    """

    __slots__ = ("_context", "_prev_context")

    def __init__(
        self, tracer: "Tracer", span: Span, context: TraceContext | None
    ) -> None:
        super().__init__(tracer, span)
        self._context = context
        self._prev_context = None

    def __enter__(self) -> Span:
        context = self._context
        if context is not None:
            span = self._span
            span.trace_id = context.trace_id
            span.span_id = context.span_id
            # The thread-local swap happens inline: this is the
            # per-operation hot path.
            self._prev_context = getattr(_ACTIVE, "context", None)
            _ACTIVE.context = context
        return super().__enter__()

    def __exit__(self, exc_type, exc, tb) -> None:
        tracer = self._tracer
        span = self._span
        span.end = tracer.clock()
        if exc_type is not None:
            _tag_error(span, exc_type)
        stack = tracer._stack
        if stack and stack[-1] is span:
            stack.pop()
        context = self._context
        if context is not None:
            _ACTIVE.context = self._prev_context
        if not stack:
            if context is not None:
                _assign_span_ids(span, context.trace_id)
            tracer.finished.append(span)


class Tracer:
    """Opens nested spans and collects finished traces.

    The open-span stack *is* the propagated context. The stack is kept
    per-thread (thread-local) because user threads may share one
    instance: spans opened on one thread nest under that thread's own
    root and never parent across threads; the ``finished`` ring buffer is
    shared (deque appends are atomic).
    """

    enabled = True

    def __init__(
        self,
        clock: Callable[[], float] = time.perf_counter,
        max_finished: int = MAX_FINISHED_TRACES,
    ) -> None:
        if max_finished < 1:
            raise ValueError("max_finished must be >= 1")
        self.clock = clock
        self._local = threading.local()
        self.finished: deque = deque(maxlen=max_finished)

    @property
    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, **tags):
        """Open a span named *name* as a child of the current span."""
        return _SpanContext(self, Span(name, tags or None))

    def trace(
        self, name: str, context: TraceContext | None = None, **tags
    ) -> _RootSpanContext:
        """Open the root span of one traced operation.

        With ``context=None`` (tracing disabled) this behaves exactly like
        :meth:`span` — no ids — so the pre-trace span trees and chaos
        fingerprints are bit-identical.
        """
        return _RootSpanContext(self, Span(name, tags or None), context)

    @property
    def current(self) -> Span | None:
        """The innermost open span, or None outside any trace."""
        return self._stack[-1] if self._stack else None

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

"""The Telemetry facade, its no-op disabled mode, and the process default.

Instrumented components take a ``telemetry`` argument and default to
:data:`NULL_TELEMETRY` — a singleton whose registry hands out no-op
counters/gauges/histograms and whose tracer hands out untraced spans. An
untraced span is fresh per call and reads the clock on enter and exit but
links into no tree and no ring, so an operation's duration (a bulk
result's ``took``, the latency the slow logs and SLOs classify) is
measured with telemetry disabled too, and no two operations share span
state. The no-op calls are a few attribute lookups each, so leaving
instrumentation in a hot path costs well under 5% of a write (the overhead
guard in ``tests/test_telemetry.py`` enforces this).

A process-wide *default* telemetry can be installed (the experiments CLI
does this for ``--profile``): :class:`~repro.esdb.ESDB` instances created
while a default is set share its registry, so a whole figure run lands in
one dump.
"""

from __future__ import annotations

from time import perf_counter

from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.tracing import Span, Tracer


class NullMetric:
    """No-op stand-in for Counter, Gauge and Histogram alike."""

    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def add(self, delta: float) -> None:
        pass

    def observe(self, value: float, trace_id=None) -> None:
        pass

    def quantile(self, q: float) -> float:
        return 0.0

    def percentiles(self) -> dict:
        return {}

    def summary(self) -> dict:
        return {}

    value = 0.0
    count = 0
    total = 0.0


NULL_METRIC = NullMetric()


class NullRegistry:
    """Registry twin whose factories return the shared no-op metric."""

    __slots__ = ()

    def counter(self, name: str, **labels) -> NullMetric:
        return NULL_METRIC

    def gauge(self, name: str, **labels) -> NullMetric:
        return NULL_METRIC

    def histogram(self, name: str, buckets=None, **labels) -> NullMetric:
        return NULL_METRIC

    def names(self) -> list:
        return []

    def kind(self, name: str) -> None:
        return None

    def series(self, name: str) -> list:
        return []

    def get(self, name: str, **labels) -> None:
        return None

    def value(self, name: str, **labels) -> float:
        return 0.0

    def total(self, name: str) -> float:
        return 0.0

    def label_cardinality(self, name: str) -> int:
        return 0

    def snapshot(self) -> dict:
        return {"counters": [], "gauges": [], "histograms": []}


class _UntracedSpan(Span):
    """A span no tracer records: it times its operation and nothing else.
    Its position is the operation's context, if any, so a root still reads
    its trace id."""

    __slots__ = ()

    def __enter__(self) -> Span:
        self.start = perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.end = perf_counter()


class NullTracer:
    """Tracer twin: ``span()`` and ``trace()`` hand back a fresh untraced
    span."""

    __slots__ = ()
    enabled = False
    finished: tuple = ()

    def span(self, name: str, **tags) -> Span:
        return _UntracedSpan(name, tags)

    def trace(self, name: str, context=None, **tags) -> Span:
        span = _UntracedSpan(name, tags)
        span._position = context
        return span

    @property
    def current(self) -> None:
        return None

    def last_trace(self) -> None:
        return None

    def recent_traces(self, n: int | None = None) -> list:
        return []

    def find_trace(self, trace_id: str) -> None:
        return None


NULL_REGISTRY = NullRegistry()
NULL_TRACER = NullTracer()


class Telemetry:
    """One instrumentation domain: a metrics registry plus a tracer.

    ``Telemetry()`` is enabled (fresh registry + tracer); pass
    ``enabled=False`` — or use :data:`NULL_TELEMETRY` — for the no-op mode.
    """

    __slots__ = ("enabled", "metrics", "tracer")

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        if enabled:
            self.metrics = MetricsRegistry()
            self.tracer = Tracer()
        else:
            self.metrics = NULL_REGISTRY
            self.tracer = NULL_TRACER

    @staticmethod
    def disabled() -> "Telemetry":
        return NULL_TELEMETRY


NULL_TELEMETRY = Telemetry(enabled=False)

_default: Telemetry | None = None


def set_default_telemetry(telemetry: Telemetry | None) -> None:
    """Install (or clear, with None) the process-wide default telemetry."""
    global _default
    _default = telemetry


def default_telemetry() -> Telemetry | None:
    """The installed process-wide default, or None."""
    return _default

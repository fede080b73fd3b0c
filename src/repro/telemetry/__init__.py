"""repro.telemetry — unified metrics, tracing and profiling.

The measurement substrate for the whole reproduction:

* :class:`MetricsRegistry` — labeled counters, gauges and bucketed
  histograms with interpolated p50/p95/p99 quantiles;
* :class:`Tracer` / :class:`Span` — lightweight nested tracing with
  context propagation (a write traces client → router → consensus →
  shard engine → replication; a query traces parse → rewrite → plan →
  per-shard subquery → aggregation);
* :class:`TraceContext` / :class:`TraceIdGenerator` — deterministic
  seed-derived W3C-shaped trace ids;
* :class:`EventLog` — bounded ring of typed operational events
  (throttles, demotions, faults, promotions, slow queries, rule commits)
  stamped with the active trace id;
* :func:`profile_dump` — the ``--profile`` JSON payload (metrics
  snapshot, trace-id exemplars on histogram buckets, recent traces);
* a near-zero-overhead disabled mode (:data:`NULL_TELEMETRY`) so
  instrumentation can stay in hot paths permanently.

Entry points: ``Telemetry()`` for an enabled domain, ``NULL_TELEMETRY``
for no-ops, ``set_default_telemetry`` to capture every instance created
afterwards (the ``--profile`` flag of ``repro.experiments`` uses this).
"""

from repro.telemetry.export import profile_dump
from repro.telemetry.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    exponential_buckets,
    summarize,
)
from repro.telemetry.timeseries import (
    DASHBOARD_SERIES,
    CounterRate,
    Derivation,
    HistogramQuantile,
    HitRatio,
    LabelSpread,
    TimeSeries,
    TimeSeriesStore,
    install_esdb_derivations,
    sparkline,
)
from repro.telemetry.context import (
    TraceConfig,
    TraceContext,
    TraceIdGenerator,
    current_context,
    derive_span_id,
)
from repro.telemetry.events import EVENT_KINDS, Event, EventLog
from repro.telemetry.runtime import (
    NULL_TELEMETRY,
    NullRegistry,
    NullTracer,
    Telemetry,
    default_telemetry,
    set_default_telemetry,
)
from repro.telemetry.tracing import Span, Tracer

__all__ = [
    "TraceContext",
    "TraceConfig",
    "TraceIdGenerator",
    "derive_span_id",
    "current_context",
    "Event",
    "EventLog",
    "EVENT_KINDS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_BUCKETS",
    "exponential_buckets",
    "summarize",
    "TimeSeries",
    "TimeSeriesStore",
    "Derivation",
    "CounterRate",
    "HitRatio",
    "HistogramQuantile",
    "LabelSpread",
    "DASHBOARD_SERIES",
    "install_esdb_derivations",
    "sparkline",
    "Span",
    "Tracer",
    "Telemetry",
    "NULL_TELEMETRY",
    "NullRegistry",
    "NullTracer",
    "default_telemetry",
    "set_default_telemetry",
    "profile_dump",
]

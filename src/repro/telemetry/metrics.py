"""Labeled metrics: counters, gauges, and bucketed histograms.

The registry is the measurement substrate for the whole system: every
subsystem (facade, router, consensus, storage engine, optimizer, executor,
replication, clients) registers its counters here, labelable by tenant /
shard / node / policy / operator. Histograms are *bucketed* — observations
land in exponential latency buckets and quantiles (p50/p95/p99) are
interpolated from the bucket counts, so memory stays O(buckets) no matter
how many writes flow through.

Everything is synchronous and allocation-light: hot paths resolve their
metric object once (``registry.counter(...)`` is a dict lookup) and then
call ``inc``/``observe`` which touch a couple of floats. The disabled mode
lives in :mod:`repro.telemetry.runtime` as no-op twins of these classes.
"""

from __future__ import annotations

import threading
from typing import Any, Iterable, Iterator

from repro.errors import ConfigurationError


def exponential_buckets(start: float, factor: float, count: int) -> tuple[float, ...]:
    """Return *count* exponentially growing bucket upper bounds.

    ``exponential_buckets(0.001, 2, 4)`` → ``(0.001, 0.002, 0.004, 0.008)``.
    """
    if start <= 0 or factor <= 1 or count < 1:
        raise ConfigurationError(
            "exponential_buckets needs start > 0, factor > 1, count >= 1"
        )
    bounds = []
    bound = start
    for _ in range(count):
        bounds.append(bound)
        bound *= factor
    return tuple(bounds)


#: Default latency buckets: 1 µs .. ~137 s in ×2.4 steps — wide enough for
#: both micro-operations (a posting-list intersect) and whole figure runs.
DEFAULT_BUCKETS = exponential_buckets(1e-6, 2.4, 21)


def _label_key(labels: dict) -> tuple:
    return tuple(sorted((str(k), v) for k, v in labels.items()))


def _export_labels(labels: dict) -> dict:
    """Stringify label values for serialization (internal keys keep the
    original objects so tenant ids of any hashable type work)."""
    return {str(k): str(v) for k, v in sorted(labels.items(), key=lambda kv: str(kv[0]))}


class Counter:
    """A monotonically increasing value."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: dict) -> None:
        self.name = name
        self.labels = labels
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ConfigurationError("counters only go up; use a gauge")
        self.value += amount


class Gauge:
    """A value that can go up and down."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: dict) -> None:
        self.name = name
        self.labels = labels
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def add(self, delta: float) -> None:
        self.value += delta


class Histogram:
    """A bucketed histogram with interpolated quantiles.

    Observations are assumed non-negative (durations, sizes, fan-outs).
    ``bounds`` are the inclusive upper edges of the finite buckets; one
    overflow bucket catches everything larger. Exact min/max/sum/count are
    tracked alongside, so ``quantile`` can clamp interpolation to the
    observed range and ``max`` is always exact.
    """

    __slots__ = ("name", "labels", "bounds", "bucket_counts", "count", "total",
                 "min_value", "max_value", "exemplars")

    def __init__(self, name: str, labels: dict,
                 buckets: tuple[float, ...] = DEFAULT_BUCKETS) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds or any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ConfigurationError("histogram buckets must be strictly increasing")
        self.name = name
        self.labels = labels
        self.bounds = bounds
        self.bucket_counts = [0] * (len(bounds) + 1)  # +1 overflow
        self.count = 0
        self.total = 0.0
        self.min_value = float("inf")
        self.max_value = float("-inf")
        # bucket index -> (value, trace_id): the latest traced observation
        # per bucket, so a p99 spike in any bucket links to a concrete
        # trace. O(buckets) memory, overwrite-on-arrival.
        self.exemplars: dict[int, tuple[float, str]] = {}

    def observe(self, value: float, trace_id: str | None = None) -> None:
        self.count += 1
        self.total += value
        if value < self.min_value:
            self.min_value = value
        if value > self.max_value:
            self.max_value = value
        index = self._bucket_index(value)
        self.bucket_counts[index] += 1
        if trace_id is not None:
            self.exemplars[index] = (value, trace_id)

    def _bucket_index(self, value: float) -> int:
        # Linear scan is fine: bucket lists are short (~20) and the early
        # buckets (fast operations) hit first.
        for index, bound in enumerate(self.bounds):
            if value <= bound:
                return index
        return len(self.bounds)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Interpolated q-quantile (``0 <= q <= 1``) from bucket counts.

        Within the target bucket the value is linearly interpolated between
        the bucket's edges; results are clamped to the exact observed
        [min, max] so coarse buckets never report impossible values.
        """
        if not 0.0 <= q <= 1.0:
            raise ConfigurationError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        target = q * self.count
        cumulative = 0
        lower = 0.0
        for index, bucket_count in enumerate(self.bucket_counts):
            upper = (
                self.bounds[index]
                if index < len(self.bounds)
                else max(self.max_value, self.bounds[-1])
            )
            if bucket_count:
                cumulative += bucket_count
                if cumulative >= target:
                    # Position of the target rank inside this bucket.
                    fraction = 1.0 - (cumulative - target) / bucket_count
                    value = lower + (upper - lower) * fraction
                    return min(max(value, self.min_value), self.max_value)
            lower = upper
        return self.max_value

    def percentiles(self) -> dict:
        """The summary quantiles every latency report wants."""
        return {
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
            "max": self.max_value if self.count else 0.0,
        }

    def summary(self) -> dict:
        """The full public summary — count/sum/mean/min/max plus the
        interpolated p50/p95/p99. This is the one API benchmark and
        time-series code should consume; bucket internals stay private."""
        return {
            "count": self.count,
            "sum": self.total,
            "mean": self.mean,
            "min": self.min_value if self.count else 0.0,
            "max": self.max_value if self.count else 0.0,
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
        }


def bucket_quantiles(values: Iterable[float], quantiles: tuple[float, ...] = (0.5, 0.95, 0.99),
                     buckets: tuple[float, ...] = DEFAULT_BUCKETS) -> dict:
    """One-shot helper: histogram-bucket quantiles of *values*.

    This is the shared quantile math between the telemetry registry and
    :mod:`repro.sim.metrics` — both report p50/p95/p99 through the same
    bucket-interpolation code path so sim-side and telemetry-side latency
    numbers are comparable.
    """
    histogram = Histogram("_adhoc", {}, buckets=buckets)
    for value in values:
        histogram.observe(value)
    return {q: histogram.quantile(q) for q in quantiles}


def summarize(values: Iterable[float],
              buckets: tuple[float, ...] = DEFAULT_BUCKETS) -> dict:
    """One-shot :meth:`Histogram.summary` of *values*.

    The simulator and the arrival statistics summarize ad-hoc duration
    lists through this, so their p50/p95/p99 share the exact
    bucket-interpolation code path of the live telemetry histograms.
    """
    histogram = Histogram("_adhoc", {}, buckets=buckets)
    for value in values:
        histogram.observe(value)
    return histogram.summary()


class MetricsRegistry:
    """Holds every metric series, keyed by (name, sorted label set).

    A metric *name* has one kind (counter, gauge or histogram) and any
    number of label combinations (series). Re-requesting an existing
    series returns the same object, so hot paths can either cache the
    returned metric or look it up each time.
    """

    def __init__(self) -> None:
        self._kinds: dict[str, str] = {}
        self._series: dict[str, dict[tuple, Any]] = {}
        self._buckets: dict[str, tuple[float, ...]] = {}
        self._help: dict[str, str] = {}
        # Registration is check-then-set over shared dicts; user threads
        # may register series concurrently, so creation is serialized.
        # Hot paths cache the returned metric object, so the lock is off
        # the per-operation fast path wherever it matters.
        self._registration = threading.RLock()

    # -- registration ------------------------------------------------------
    def _get(self, kind: str, name: str, labels: dict, factory) -> Any:
        with self._registration:
            known = self._kinds.get(name)
            if known is None:
                self._kinds[name] = kind
                self._series[name] = {}
            elif known != kind:
                raise ConfigurationError(
                    f"metric {name!r} is a {known}, requested as {kind}"
                )
            key = _label_key(labels)
            series = self._series[name]
            metric = series.get(key)
            if metric is None:
                metric = factory()
                series[key] = metric
            return metric

    def counter(self, name: str, **labels) -> Counter:
        return self._get("counter", name, labels, lambda: Counter(name, labels))

    def gauge(self, name: str, **labels) -> Gauge:
        return self._get("gauge", name, labels, lambda: Gauge(name, labels))

    def histogram(self, name: str, buckets: tuple[float, ...] | None = None,
                  **labels) -> Histogram:
        with self._registration:
            if buckets is not None:
                existing = self._buckets.setdefault(name, tuple(buckets))
                if existing != tuple(buckets):
                    raise ConfigurationError(
                        f"histogram {name!r} already registered with different buckets"
                    )
            chosen = self._buckets.get(name, DEFAULT_BUCKETS)
        return self._get(
            "histogram", name, labels, lambda: Histogram(name, labels, buckets=chosen)
        )

    def set_help(self, name: str, text: str) -> None:
        """Attach a one-line description to metric *name* — emitted as the
        ``# HELP`` line by the Prometheus exporter."""
        self._help[name] = " ".join(str(text).split())

    def help_for(self, name: str) -> str:
        """The registered help text for *name*, or a generated default."""
        text = self._help.get(name)
        if text:
            return text
        kind = self._kinds.get(name, "metric")
        return f"{name} ({kind})"

    # -- introspection -----------------------------------------------------
    def names(self) -> list[str]:
        return sorted(self._kinds)

    def kind(self, name: str) -> str | None:
        return self._kinds.get(name)

    def series(self, name: str) -> list[Any]:
        """All series (metric objects) registered under *name*."""
        return list(self._series.get(name, {}).values())

    def iter_series(self) -> Iterator[Any]:
        for name in self.names():
            yield from self.series(name)

    def get(self, name: str, **labels) -> Any | None:
        """The exact series for *labels*, or None if never registered."""
        return self._series.get(name, {}).get(_label_key(labels))

    def value(self, name: str, **labels) -> float:
        """Counter/gauge value of one series (0.0 when absent)."""
        metric = self.get(name, **labels)
        return metric.value if metric is not None else 0.0

    def total(self, name: str) -> float:
        """Sum of a counter/gauge name across all its label combinations."""
        return sum(m.value for m in self.series(name))

    def label_cardinality(self, name: str) -> int:
        """Distinct label combinations registered under *name*."""
        return len(self._series.get(name, {}))

    # -- snapshots ---------------------------------------------------------
    def snapshot(self) -> dict:
        """A JSON-ready dump of every series (see repro.telemetry.export)."""
        counters, gauges, histograms = [], [], []
        for name in self.names():
            kind = self._kinds[name]
            for metric in self.series(name):
                entry: dict[str, Any] = {
                    "name": name,
                    "labels": _export_labels(metric.labels),
                }
                if kind == "histogram":
                    entry.update(
                        metric.summary(),
                        buckets=[
                            [bound, count]
                            for bound, count in zip(
                                list(metric.bounds) + ["+Inf"], metric.bucket_counts
                            )
                        ],
                    )
                    if metric.exemplars:
                        # Lists, not tuples, so the snapshot JSON round-trips
                        # to an equal object; key absent when never traced so
                        # untraced snapshots keep their pre-exemplar shape.
                        entry["exemplars"] = [
                            [index, value, trace_id]
                            for index, (value, trace_id) in sorted(metric.exemplars.items())
                        ]
                    histograms.append(entry)
                else:
                    entry["value"] = metric.value
                    (counters if kind == "counter" else gauges).append(entry)
        return {"counters": counters, "gauges": gauges, "histograms": histograms}

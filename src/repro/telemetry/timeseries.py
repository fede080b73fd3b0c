"""Time-series sampling of the metrics registry, and sparkline rendering.

Everything in :mod:`repro.telemetry.metrics` is *cumulative*: a counter
only says how many writes have ever happened, not whether the last second
was fast or slow. This module adds the time axis. A :class:`TimeSeriesStore`
samples a registry at a fixed logical interval — the clock is injected via
the ``now`` argument of :meth:`TimeSeriesStore.maybe_sample`, so tests and
the simulator drive it deterministically and nothing here reads the wall
clock — into bounded ring-buffered :class:`TimeSeries` per labeled metric.

On top of the raw samples, *derivations* compute the operator-facing series
every dashboard wants: per-interval throughput from counter deltas
(:class:`CounterRate`), per-interval cache hit ratio (:class:`HitRatio`),
running histogram quantiles (:class:`HistogramQuantile`), and the
max/mean spread of a labeled counter's per-interval deltas
(:class:`LabelSpread` — the hot-shard skew series). Derivations are
no-ops against the disabled :class:`~repro.telemetry.runtime.NullRegistry`
(its metric names never exist), so a store attached to a telemetry-off
instance yields well-formed empty output instead of zeros.

:func:`sparkline` renders any series as a fixed-width unicode strip for
``ESDB.dashboard()`` / ``cat_timeseries``; it never raises on degenerate
input (empty, single point, constant, NaN/None, huge ranges).
"""

from __future__ import annotations

import math
from typing import Any, Iterable

from repro.errors import ConfigurationError

#: Eight-level bar ramp used by :func:`sparkline`.
SPARK_BARS = "▁▂▃▄▅▆▇█"
#: Placeholder for missing (None/NaN) samples inside a sparkline.
SPARK_GAP = "·"


def _label_key(labels: dict) -> tuple:
    return tuple(sorted((str(k), v) for k, v in labels.items()))


def sparkline(values: Iterable[Any], width: int = 32) -> str:
    """Render *values* as a unicode sparkline of exactly *width* characters.

    The last *width* samples are shown (one character each); shorter series
    are left-padded with spaces so the strip keeps a stable width and the
    most recent sample is always the rightmost character. ``None``/NaN
    samples render as ``·``. A constant series renders at the lowest bar
    (``▁``) — flat is flat, wherever it sits; non-finite-only and empty
    series render as padding. Never raises.
    """
    if width < 1:
        raise ConfigurationError("sparkline width must be >= 1")
    tail = list(values)[-width:]
    finite = [
        float(v)
        for v in tail
        if v is not None and isinstance(v, (int, float)) and math.isfinite(float(v))
    ]
    low = min(finite) if finite else 0.0
    span = (max(finite) - low) if finite else 0.0
    chars = []
    for value in tail:
        if (
            value is None
            or not isinstance(value, (int, float))
            or not math.isfinite(float(value))
        ):
            chars.append(SPARK_GAP)
        elif span <= 0.0:
            chars.append(SPARK_BARS[0])
        else:
            index = int((float(value) - low) / span * (len(SPARK_BARS) - 1) + 0.5)
            chars.append(SPARK_BARS[min(max(index, 0), len(SPARK_BARS) - 1)])
    return "".join(chars).rjust(width)


class TimeSeries:
    """A bounded ring buffer of ``(time, value)`` samples for one series.

    Appending past ``capacity`` overwrites the oldest sample; memory is
    O(capacity) no matter how long the run (the same guarantee the tracer's
    finished-span ring gives). Times are whatever clock fed the store —
    logical seconds everywhere in this repo.
    """

    __slots__ = ("name", "labels", "capacity", "_points", "_head")

    def __init__(self, name: str, labels: dict | None = None, capacity: int = 240) -> None:
        if capacity < 2:
            raise ConfigurationError("time series capacity must be >= 2")
        self.name = name
        self.labels = dict(labels or {})
        self.capacity = capacity
        self._points: list[tuple[float, float]] = []
        self._head = 0  # index of the oldest point once the ring is full

    def append(self, time: float, value: float) -> None:
        if len(self._points) < self.capacity:
            self._points.append((time, value))
        else:
            self._points[self._head] = (time, value)
            self._head = (self._head + 1) % self.capacity

    def __len__(self) -> int:
        return len(self._points)

    def points(self) -> list[tuple[float, float]]:
        """Samples in chronological order (oldest first)."""
        return self._points[self._head:] + self._points[: self._head]

    def times(self) -> list[float]:
        return [t for t, _ in self.points()]

    def values(self) -> list[float]:
        return [v for _, v in self.points()]

    def last(self) -> tuple[float, float] | None:
        """The most recent ``(time, value)`` sample, or None when empty."""
        if not self._points:
            return None
        return self._points[(self._head - 1) % len(self._points)]

    # -- queries -----------------------------------------------------------
    def delta(self, samples: int = 1) -> float | None:
        """Value change over the last *samples* intervals (None if the ring
        holds fewer than ``samples + 1`` points)."""
        if samples < 1:
            raise ConfigurationError("delta needs samples >= 1")
        pts = self.points()
        if len(pts) <= samples:
            return None
        return pts[-1][1] - pts[-1 - samples][1]

    def rate(self, samples: int = 1) -> float | None:
        """Per-second rate of change over the last *samples* intervals."""
        if samples < 1:
            raise ConfigurationError("rate needs samples >= 1")
        pts = self.points()
        if len(pts) <= samples:
            return None
        elapsed = pts[-1][0] - pts[-1 - samples][0]
        if elapsed <= 0:
            return None
        return (pts[-1][1] - pts[-1 - samples][1]) / elapsed

    def window(self, start: float | None = None, end: float | None = None) -> list[tuple[float, float]]:
        """Samples with ``start <= time <= end`` (either bound optional)."""
        return [
            (t, v)
            for t, v in self.points()
            if (start is None or t >= start) and (end is None or t <= end)
        ]

    def summary(self) -> dict:
        """Count/min/max/mean/last over the retained window, NaN-safe."""
        finite = [v for v in self.values() if v is not None and math.isfinite(v)]
        last = self.last()
        return {
            "count": len(self._points),
            "min": min(finite) if finite else 0.0,
            "max": max(finite) if finite else 0.0,
            "mean": sum(finite) / len(finite) if finite else 0.0,
            "last": last[1] if last is not None else 0.0,
        }

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "labels": {str(k): str(v) for k, v in sorted(self.labels.items())},
            "times": self.times(),
            "values": self.values(),
        }


# -- derivations --------------------------------------------------------------


class Derivation:
    """Base class: computes derived samples at each sampling round.

    ``compute(registry, now, elapsed)`` returns ``(series_name, value)``
    pairs; *elapsed* is the logical time since the previous round (None on
    the first). Implementations keep whatever previous-total state they
    need, and must emit nothing when their source metric was never
    registered — that is what keeps a disabled registry's store empty.
    """

    def compute(self, registry, now: float, elapsed: float | None) -> list[tuple[str, float]]:
        raise NotImplementedError


class CounterRate(Derivation):
    """Per-second rate of a counter name (summed across its labels)."""

    def __init__(self, series: str, metric: str) -> None:
        self.series = series
        self.metric = metric
        self._prev: float | None = None

    def compute(self, registry, now, elapsed):
        if registry.label_cardinality(self.metric) == 0:
            return []
        total = registry.total(self.metric)
        prev, self._prev = self._prev, total
        if prev is None or not elapsed or elapsed <= 0:
            return [(self.series, 0.0)]
        return [(self.series, (total - prev) / elapsed)]


class HitRatio(Derivation):
    """Per-interval hit percentage from a hits/misses counter pair."""

    def __init__(self, series: str, hits_metric: str, misses_metric: str) -> None:
        self.series = series
        self.hits_metric = hits_metric
        self.misses_metric = misses_metric
        self._prev: tuple[float, float] | None = None

    def compute(self, registry, now, elapsed):
        if (
            registry.label_cardinality(self.hits_metric) == 0
            and registry.label_cardinality(self.misses_metric) == 0
        ):
            return []
        totals = (registry.total(self.hits_metric), registry.total(self.misses_metric))
        prev, self._prev = self._prev, totals
        if prev is None:
            return [(self.series, 0.0)]
        hits = totals[0] - prev[0]
        misses = totals[1] - prev[1]
        if hits + misses <= 0:
            return [(self.series, 0.0)]
        return [(self.series, 100.0 * hits / (hits + misses))]


class HistogramQuantile(Derivation):
    """Running quantile of a histogram (cumulative over the whole run)."""

    def __init__(self, series: str, metric: str, q: float, scale: float = 1.0) -> None:
        self.series = series
        self.metric = metric
        self.q = q
        self.scale = scale

    def compute(self, registry, now, elapsed):
        if registry.label_cardinality(self.metric) == 0:
            return []
        histograms = [h for h in registry.series(self.metric) if h.count]
        if not histograms:
            return [(self.series, 0.0)]
        # One unlabeled histogram is the common case; with labels, report
        # the worst series — the operator-relevant tail.
        return [(self.series, max(h.quantile(self.q) for h in histograms) * self.scale)]


class GaugeAggregate(Derivation):
    """Min or max of a labeled gauge's current values, optionally
    restricted to series matching fixed labels.

    ``GaugeAggregate("slo.budget_min_pct", "slo_budget_remaining_pct",
    agg="min")`` emits the *worst* objective's remaining error budget each
    interval — the headline number an SLO dashboard tracks. Emits nothing
    when the gauge was never registered (SLO tracking off), keeping a
    disabled instance's history empty like every other derivation.
    """

    def __init__(self, series: str, metric: str, agg: str = "max",
                 match: dict | None = None) -> None:
        if agg not in ("min", "max"):
            raise ConfigurationError("agg must be 'min' or 'max'")
        self.series = series
        self.metric = metric
        self._agg = min if agg == "min" else max
        self.match = dict(match or {})

    def compute(self, registry, now, elapsed):
        if registry.label_cardinality(self.metric) == 0:
            return []
        values = [
            metric.value
            for metric in registry.series(self.metric)
            if all(
                metric.labels.get(key) == value
                for key, value in self.match.items()
            )
        ]
        if not values:
            return []
        return [(self.series, float(self._agg(values)))]


class LabelSpread(Derivation):
    """Max and mean of a labeled counter's per-interval deltas.

    ``LabelSpread("shard_writes", "esdb_writes_total")`` emits
    ``shard_writes.max`` and ``shard_writes.mean`` — the hot-shard skew
    series: how much the busiest shard outran the average this interval.
    """

    def __init__(self, series: str, metric: str) -> None:
        self.series = series
        self.metric = metric
        self._prev: dict[tuple, float] = {}
        self._seen = False

    def compute(self, registry, now, elapsed):
        if registry.label_cardinality(self.metric) == 0:
            return []
        totals = {
            _label_key(metric.labels): metric.value
            for metric in registry.series(self.metric)
        }
        prev, self._prev = self._prev, totals
        seen, self._seen = self._seen, True
        if not seen:
            return [(f"{self.series}.max", 0.0), (f"{self.series}.mean", 0.0)]
        deltas = [value - prev.get(key, 0.0) for key, value in totals.items()]
        return [
            (f"{self.series}.max", max(deltas) if deltas else 0.0),
            (f"{self.series}.mean", sum(deltas) / len(deltas) if deltas else 0.0),
        ]


# -- the store ----------------------------------------------------------------


class TimeSeriesStore:
    """Ring-buffered time series sampled from a metrics registry.

    ``maybe_sample(now)`` is the only clock input: the first call anchors
    the schedule and takes sample zero; later calls sample whenever *now*
    has advanced past the next interval boundary (one sample per call —
    logical clocks jump, and one fresh sample per jump is what a dashboard
    wants). ``record()`` feeds series directly, bypassing the registry —
    the simulator uses it for its per-tick model series.

    Raw registry sampling records every labeled counter/gauge value and
    every histogram's count; derived series (rates, ratios, quantiles,
    spreads) come from :meth:`add_derivation`. Total series count is capped
    by ``max_series`` (new keys beyond the cap are counted in
    :attr:`dropped_series`, never stored), so a tenant-cardinality explosion
    cannot turn the history buffer into a leak. A registry metric's series —
    or the cap's verdict that it has none — is looked up once, so a round
    costs one probe per metric and a dropped metric counts as one drop.
    """

    def __init__(
        self,
        registry=None,
        interval: float = 1.0,
        capacity: int = 240,
        max_series: int = 512,
    ) -> None:
        if interval <= 0:
            raise ConfigurationError("sampling interval must be positive")
        if capacity < 2:
            raise ConfigurationError("time series capacity must be >= 2")
        self.registry = registry
        self.interval = float(interval)
        self.capacity = capacity
        self.max_series = max_series
        self.samples_taken = 0
        self.dropped_series = 0
        self._series: dict[tuple[str, tuple], TimeSeries] = {}
        self._metric_series: dict[Any, TimeSeries | None] = {}
        self._derivations: list[Derivation] = []
        self._next_sample: float | None = None
        self._last_sample_time: float | None = None

    # -- series access -----------------------------------------------------
    def series(self, name: str, **labels) -> TimeSeries | None:
        """The series for ``(name, labels)``, created on first use (None
        only when the ``max_series`` cap is hit)."""
        key = (name, _label_key(labels))
        existing = self._series.get(key)
        if existing is not None:
            return existing
        if len(self._series) >= self.max_series:
            self.dropped_series += 1
            return None
        created = TimeSeries(name, labels, capacity=self.capacity)
        self._series[key] = created
        return created

    def get(self, name: str, **labels) -> TimeSeries | None:
        """The exact series, or None if never recorded."""
        return self._series.get((name, _label_key(labels)))

    def names(self) -> list[str]:
        return sorted({name for name, _ in self._series})

    def all_series(self) -> list[TimeSeries]:
        """Every series, sorted by (name, labels) for deterministic output."""
        return [self._series[key] for key in sorted(self._series)]

    def record(self, name: str, time: float, value: float, **labels) -> None:
        """Append one sample directly (no registry involved)."""
        series = self.series(name, **labels)
        if series is not None:
            series.append(time, value)

    # -- queries (store-level conveniences) --------------------------------
    def delta(self, name: str, samples: int = 1, **labels) -> float | None:
        series = self.get(name, **labels)
        return series.delta(samples) if series is not None else None

    def rate(self, name: str, samples: int = 1, **labels) -> float | None:
        series = self.get(name, **labels)
        return series.rate(samples) if series is not None else None

    def window(self, name: str, start: float | None = None, end: float | None = None,
               **labels) -> list[tuple[float, float]]:
        series = self.get(name, **labels)
        return series.window(start, end) if series is not None else []

    # -- sampling ----------------------------------------------------------
    def add_derivation(self, derivation: Derivation) -> "TimeSeriesStore":
        self._derivations.append(derivation)
        return self

    def due(self, now: float) -> bool:
        return self._next_sample is None or now >= self._next_sample

    def maybe_sample(self, now: float) -> bool:
        """Sample iff *now* has reached the next interval boundary."""
        if not self.due(now):
            return False
        self.sample(now)
        return True

    def sample(self, now: float) -> None:
        """Take one sampling round stamped at *now* unconditionally."""
        elapsed = (
            now - self._last_sample_time if self._last_sample_time is not None else None
        )
        registry = self.registry
        if registry is not None:
            # Derived series first: they are the dashboard's headline rows,
            # so they must win the max_series cap over raw labeled series
            # (a 512-shard topology alone can exhaust the cap).
            for derivation in self._derivations:
                for series_name, value in derivation.compute(registry, now, elapsed):
                    self.record(series_name, now, value)
            metric_series = self._metric_series
            for name in registry.names():
                kind = registry.kind(name) if hasattr(registry, "kind") else None
                histogram = kind == "histogram"
                for metric in registry.series(name):
                    try:
                        series = metric_series[metric]
                    except KeyError:
                        series = metric_series[metric] = self.series(
                            f"{name}.count" if histogram else name, **metric.labels
                        )
                    if series is not None:
                        series.append(now, metric.count if histogram else metric.value)
        self.samples_taken += 1
        self._last_sample_time = now
        self._next_sample = now + self.interval

    # -- export ------------------------------------------------------------
    def snapshot(self, names: Iterable[str] | None = None) -> dict:
        """JSON-ready dump: config, counts, and every (or the named) series."""
        wanted = set(names) if names is not None else None
        return {
            "interval": self.interval,
            "capacity": self.capacity,
            "samples": self.samples_taken,
            "dropped_series": self.dropped_series,
            "series": [
                series.to_dict()
                for series in self.all_series()
                if wanted is None or series.name in wanted
            ],
        }


def install_esdb_derivations(store: TimeSeriesStore) -> TimeSeriesStore:
    """Attach the facade's standard derived series to *store*.

    These are the sparkline series ``ESDB.dashboard()`` renders: writes/s
    and queries/s (counter rates), p99 write/query latency in ms (running
    histogram quantiles), the all-level cache hit percentage per interval,
    and the hot-shard max/mean per-interval write spread.
    """
    store.add_derivation(CounterRate("esdb.writes_per_s", "esdb_writes_total"))
    store.add_derivation(CounterRate("esdb.queries_per_s", "esdb_queries_total"))
    store.add_derivation(
        HistogramQuantile("esdb.write_p99_ms", "esdb_write_seconds", 0.99, scale=1e3)
    )
    store.add_derivation(
        HistogramQuantile("esdb.query_p99_ms", "esdb_query_seconds", 0.99, scale=1e3)
    )
    store.add_derivation(
        HitRatio("esdb.cache_hit_pct", "cache_hits_total", "cache_misses_total")
    )
    store.add_derivation(LabelSpread("esdb.shard_writes", "esdb_writes_total"))
    # Chaos/faults series: these counters only exist once a FaultInjector
    # or a retrying WriteClient runs, so ordinary instances emit nothing.
    store.add_derivation(CounterRate("faults.injected_per_s", "faults_injected_total"))
    store.add_derivation(CounterRate("faults.recovered_per_s", "faults_recovered_total"))
    store.add_derivation(
        CounterRate("faults.client_retries_per_s", "write_client_retries_total")
    )
    store.add_derivation(
        CounterRate("faults.dead_letters_per_s", "write_client_dead_letters_total")
    )
    # Tenancy governance series: the tenancy_* counters only exist on a
    # governed instance, so ungoverned instances emit nothing here either.
    store.add_derivation(
        CounterRate("tenancy.admitted_per_s", "tenancy_admitted_total")
    )
    store.add_derivation(CounterRate("tenancy.shed_per_s", "tenancy_shed_total"))
    store.add_derivation(CounterRate("tenancy.queued_per_s", "tenancy_queued_total"))
    # Batched-execution series: esdb_bulk_docs_total only exists once
    # bulk_write is used and exec_shared_* once execute_batch shares work,
    # so an instance that does neither emits nothing here.
    store.add_derivation(CounterRate("exec.bulk_docs_per_s", "esdb_bulk_docs_total"))
    store.add_derivation(
        CounterRate("exec.shared_saved_per_s", "exec_shared_saved_total")
    )
    # SLO series: the slo_* gauges only exist on an SLO-enabled instance,
    # so everything else emits nothing here. Budget is aggregated as the
    # *minimum* (the worst objective is the headline); burn rates as the
    # maximum per window.
    store.add_derivation(
        GaugeAggregate("slo.budget_min_pct", "slo_budget_remaining_pct", agg="min")
    )
    store.add_derivation(
        GaugeAggregate(
            "slo.burn_fast_max", "slo_burn_rate", agg="max",
            match={"window": "fast"},
        )
    )
    store.add_derivation(
        GaugeAggregate(
            "slo.burn_slow_max", "slo_burn_rate", agg="max",
            match={"window": "slow"},
        )
    )
    return store


#: The dashboard's sparkline rows: (label, series name) in display order.
DASHBOARD_SERIES = (
    ("writes/s", "esdb.writes_per_s"),
    ("queries/s", "esdb.queries_per_s"),
    ("write p99 ms", "esdb.write_p99_ms"),
    ("query p99 ms", "esdb.query_p99_ms"),
    ("cache hit %", "esdb.cache_hit_pct"),
    ("hot shard max", "esdb.shard_writes.max"),
    ("hot shard mean", "esdb.shard_writes.mean"),
    ("faults/s", "faults.injected_per_s"),
    ("recoveries/s", "faults.recovered_per_s"),
    ("admitted/s", "tenancy.admitted_per_s"),
    ("shed/s", "tenancy.shed_per_s"),
    ("bulk docs/s", "exec.bulk_docs_per_s"),
    ("budget min %", "slo.budget_min_pct"),
    ("burn fast max", "slo.burn_fast_max"),
    ("burn slow max", "slo.burn_slow_max"),
    ("hot key conc %", "slo_hotkey_concentration_pct"),
    ("arrivals/s", "workload.arrival_rate"),
    ("live tenants", "workload.live_tenants"),
)

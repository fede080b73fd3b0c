"""Tests for repro.telemetry: metrics, tracing, the profile dump, and overhead."""

from __future__ import annotations

import gc
import json
import time

import pytest

from repro.errors import ConfigurationError
from repro.esdb import ESDB
from repro.obsv import render_dashboard, snapshot
from repro.storage import ShardEngine
from repro.telemetry import (
    DEFAULT_BUCKETS,
    MetricsRegistry,
    NULL_TELEMETRY,
    Telemetry,
    Tracer,
    default_telemetry,
    exponential_buckets,
    profile_dump,
    set_default_telemetry,
    summarize,
)
from repro.telemetry.runtime import NULL_METRIC
from repro.telemetry.tracing import MAX_FINISHED_TRACES
from tests.conftest import make_log


class TestHistogramQuantiles:
    def test_exponential_buckets_shape(self):
        assert exponential_buckets(0.001, 2, 4) == (0.001, 0.002, 0.004, 0.008)
        with pytest.raises(ConfigurationError):
            exponential_buckets(0, 2, 4)
        with pytest.raises(ConfigurationError):
            exponential_buckets(1, 1, 4)

    def test_quantiles_exact_on_unit_buckets(self):
        # Integer-edge buckets + integer observations make the interpolated
        # quantiles exactly computable.
        registry = MetricsRegistry()
        hist = registry.histogram("h", buckets=tuple(float(i) for i in range(1, 101)))
        for value in range(1, 101):
            hist.observe(float(value))
        assert hist.quantile(0.50) == pytest.approx(50.0)
        assert hist.quantile(0.95) == pytest.approx(95.0)
        assert hist.quantile(0.99) == pytest.approx(99.0)
        assert hist.quantile(1.0) == pytest.approx(100.0)
        assert hist.quantile(0.0) == pytest.approx(1.0)  # clamped to observed min

    def test_quantiles_clamped_to_observed_range(self):
        registry = MetricsRegistry()
        hist = registry.histogram("h", buckets=(10.0, 1000.0))
        hist.observe(12.0)
        hist.observe(13.0)
        # Interpolation inside the (10, 1000] bucket would report huge
        # values; clamping bounds it to the observed max.
        assert hist.quantile(0.99) <= 13.0
        assert hist.quantile(0.01) >= 12.0
        assert hist.percentiles()["max"] == 13.0

    def test_overflow_bucket_and_mean(self):
        registry = MetricsRegistry()
        hist = registry.histogram("h", buckets=(1.0, 2.0))
        for value in (0.5, 1.5, 9.0):
            hist.observe(value)
        assert hist.bucket_counts == [1, 1, 1]
        assert hist.mean == pytest.approx((0.5 + 1.5 + 9.0) / 3)
        assert hist.quantile(1.0) == 9.0

    def test_empty_histogram_is_quiet(self):
        registry = MetricsRegistry()
        hist = registry.histogram("h")
        assert hist.quantile(0.5) == 0.0
        assert hist.percentiles() == {"p50": 0.0, "p95": 0.0, "p99": 0.0, "max": 0.0}

    def test_summarize_helper_matches_histogram(self):
        values = [float(v) for v in range(1, 101)]
        result = summarize(values, buckets=tuple(float(i) for i in range(1, 101)))
        assert result["p50"] == pytest.approx(50.0)
        assert result["p95"] == pytest.approx(95.0)
        assert result["p99"] == pytest.approx(99.0)
        assert result["count"] == 100

    def test_bucket_mismatch_rejected(self):
        registry = MetricsRegistry()
        registry.histogram("h", buckets=(1.0, 2.0))
        with pytest.raises(ConfigurationError):
            registry.histogram("h", buckets=(1.0, 3.0))

    def test_default_buckets_cover_microseconds_to_minutes(self):
        assert DEFAULT_BUCKETS[0] == pytest.approx(1e-6)
        assert DEFAULT_BUCKETS[-1] > 30.0


class TestRegistry:
    def test_counter_accumulates_and_rejects_negative(self):
        registry = MetricsRegistry()
        counter = registry.counter("writes_total", shard="0")
        counter.inc()
        counter.inc(4)
        assert registry.value("writes_total", shard="0") == 5.0
        with pytest.raises(ConfigurationError):
            counter.inc(-1)

    def test_same_labels_return_same_series(self):
        registry = MetricsRegistry()
        a = registry.counter("c", tenant="t1", shard="3")
        b = registry.counter("c", shard="3", tenant="t1")  # label order irrelevant
        assert a is b

    def test_label_cardinality(self):
        registry = MetricsRegistry()
        for tenant in range(7):
            registry.counter("tenant_writes", tenant=str(tenant)).inc()
        assert registry.label_cardinality("tenant_writes") == 7
        assert registry.total("tenant_writes") == 7.0
        assert registry.label_cardinality("never_registered") == 0

    def test_kind_conflicts_rejected(self):
        registry = MetricsRegistry()
        registry.counter("m")
        with pytest.raises(ConfigurationError):
            registry.gauge("m")
        with pytest.raises(ConfigurationError):
            registry.histogram("m")

    def test_gauge_goes_both_ways(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("depth")
        gauge.set(10)
        gauge.add(-3)
        assert registry.value("depth") == 7.0


class TestTracing:
    def test_span_nesting_and_ordering(self):
        tracer = Tracer()
        with tracer.span("root") as root:
            with tracer.span("child-a"):
                with tracer.span("grandchild"):
                    pass
            with tracer.span("child-b"):
                pass
        assert [span.name for span in root.walk()] == ["root", "child-a", "grandchild", "child-b"]
        assert tracer.last_trace() is root
        assert tracer.current is None

    def test_nested_durations_non_negative_and_contained(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                time.sleep(0.001)
        assert inner.duration > 0.0
        assert outer.duration >= inner.duration

    def test_error_tagging(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("boom") as span:
                raise ValueError("x")
        assert span.tags["error"] is True
        assert span.tags["error_type"] == "ValueError"
        assert tracer.current is None

    def test_error_tagging_on_root_trace_path(self):
        # Both exit paths (a span's and a traced root's) tag identically,
        # and an errored root is recorded in the finished ring even though
        # the exception propagates.
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.trace("op") as root:
                raise RuntimeError("y")
        assert root.tags["error"] is True
        assert root.tags["error_type"] == "RuntimeError"
        assert tracer.last_trace() is root
        assert tracer.current is None

    def test_find_and_prefix(self):
        tracer = Tracer()
        with tracer.span("query") as root:
            with tracer.span("query.shard[0]"):
                pass
            with tracer.span("query.shard[1]"):
                pass
        assert root.find("query.shard[1]") is not None
        assert len([span for span in root.walk() if span.name.startswith("query.shard")]) == 2

    def test_to_dict_round_trip_through_json(self):
        tracer = Tracer()
        with tracer.span("a", tenant="t1") as root:
            with tracer.span("b"):
                pass
        payload = json.loads(json.dumps(root.to_dict()))
        assert payload["name"] == "a"
        assert payload["tags"] == {"tenant": "t1"}
        assert payload["children"][0]["name"] == "b"

    def test_finished_traces_ring_buffer(self):
        tracer = Tracer()
        for i in range(MAX_FINISHED_TRACES + 6):
            with tracer.span(f"op{i}"):
                pass
        assert len(tracer.finished) == MAX_FINISHED_TRACES == 128
        names = [s.name for s in tracer.recent_traces()]
        assert names[0] == "op6" and names[-1] == "op133"
        assert [s.name for s in tracer.recent_traces(2)] == ["op132", "op133"]
        assert tracer.recent_traces(1000) == list(tracer.finished)

    def test_traced_write_memory_bounded_across_10k_writes(self):
        """Regression guard for span retention: 10k traced facade writes
        create ~30k spans, but the tracer's ring buffer must keep the live
        span population bounded (last 128 roots), not growing with the
        write count."""
        from repro.cluster import ClusterTopology
        from repro.esdb import EsdbConfig
        from repro.telemetry import Span

        gc.collect()
        before = sum(isinstance(obj, Span) for obj in gc.get_objects())
        db = ESDB(
            EsdbConfig(
                topology=ClusterTopology(num_nodes=2, num_shards=4),
                auto_refresh_every=None,
            )
        )
        for i in range(10_000):
            db.write(make_log(i, tenant=f"t{i % 7}", created=float(i) * 0.001))
        assert len(db.telemetry.tracer.finished) == 128
        gc.collect()
        after = sum(isinstance(obj, Span) for obj in gc.get_objects())
        # 128 retained write traces of ~3 spans each, plus slack for
        # whatever else the instance holds — nowhere near the 30k created.
        assert after - before < 2_000


class TestExporters:
    def _populated_registry(self) -> MetricsRegistry:
        registry = MetricsRegistry()
        registry.counter("writes_total", shard="0").inc(10)
        registry.counter("writes_total", shard="1").inc(20)
        registry.gauge("queue_depth").set(3)
        hist = registry.histogram("latency", buckets=(0.1, 1.0))
        for value in (0.05, 0.5, 5.0):
            hist.observe(value)
        return registry

    def test_json_round_trip(self):
        registry = self._populated_registry()
        assert json.loads(json.dumps(registry.snapshot())) == registry.snapshot()

    def test_profile_dump_contains_metrics_and_traces(self):
        registry = self._populated_registry()
        tracer = Tracer()
        with tracer.span("op"):
            pass
        payload = profile_dump(registry, list(tracer.finished))
        assert payload["metrics"] == registry.snapshot()
        assert payload["traces"][0]["name"] == "op"


class TestDisabledMode:
    def test_null_telemetry_is_inert(self):
        telemetry = NULL_TELEMETRY
        assert not telemetry.enabled
        counter = telemetry.metrics.counter("anything", tenant="t")
        counter.inc(100)
        assert counter is NULL_METRIC
        assert telemetry.metrics.snapshot() == {
            "counters": [],
            "gauges": [],
            "histograms": [],
        }
        with telemetry.tracer.span("noop") as span:
            assert span.name == "noop"
        assert telemetry.tracer.last_trace() is None

    def test_disabled_spans_share_no_state(self):
        tracer = NULL_TELEMETRY.tracer
        with tracer.trace("query") as first:
            first.tags["fanout"] = 1
        with tracer.trace("query") as second:
            pass
        assert second is not first
        assert second.tags == {}

    def test_disabled_instance_measures_durations(self, monkeypatch):
        """With telemetry off, an operation's duration still comes from the
        clock: a bulk result's took and the index slow log see slow
        writes."""
        from repro.esdb import EsdbConfig

        index = ShardEngine.index

        def slow_index(engine, *args, **kwargs):
            time.sleep(0.02)
            return index(engine, *args, **kwargs)

        monkeypatch.setattr(ShardEngine, "index", slow_index)
        db = ESDB(EsdbConfig(telemetry_enabled=False))
        result = db.bulk_write(
            [make_log(i, tenant="t1", created=float(i)) for i in range(3)]
        )
        assert result.took >= 0.06
        entries = db.obsv.index_slowlog.tail(10)
        assert len(entries) == 3
        assert all(entry.elapsed >= 0.02 for entry in entries)

    def test_default_telemetry_install_and_clear(self):
        assert default_telemetry() is None
        shared = Telemetry()
        set_default_telemetry(shared)
        try:
            db = ESDB()
            assert db.telemetry is shared
        finally:
            set_default_telemetry(None)
        assert default_telemetry() is None

    def test_disabled_overhead_under_5_percent(self, engine_config):
        """The overhead guard: the full no-op instrumentation sequence of a
        write (route counter + engine counter + a span) repeated 10k times
        must cost < 5% of an actual 10k-write engine loop."""
        engine = ShardEngine(engine_config)  # telemetry defaults to NULL
        telemetry = NULL_TELEMETRY
        counter = telemetry.metrics.counter("overhead_probe")
        tracer = telemetry.tracer
        docs = [make_log(i, created=float(i)) for i in range(10_000)]

        start = time.perf_counter()
        for doc in docs:
            engine.index(doc)
        write_seconds = time.perf_counter() - start

        start = time.perf_counter()
        for _ in range(10_000):
            with tracer.span("write"):
                counter.inc()
                counter.inc()
        noop_seconds = time.perf_counter() - start

        assert noop_seconds < 0.05 * write_seconds, (
            f"no-op instrumentation took {noop_seconds:.4f}s vs "
            f"{write_seconds:.4f}s for the writes themselves"
        )


class TestFacadeIntegration:
    def _loaded_db(self) -> ESDB:
        db = ESDB()
        for i in range(40):
            db.write(make_log(i, tenant="t1", created=float(i)))
        return db

    def test_explain_analyze_span_tree(self):
        db = self._loaded_db()
        root = db.explain_analyze(
            "SELECT * FROM transactions WHERE tenant_id = 't1' AND status = 1"
        )
        stages = [span.name for span in root.walk()]
        assert "query.rewrite" in stages
        assert "query.plan" in stages
        assert any(name.startswith("query.shard[") for name in stages)
        assert "query.aggregate" in stages
        assert all(span.duration >= 0.0 for span in root.walk())
        # Children are fully contained in the root's window.
        assert all(span.end <= root.end for span in root.walk())

    def test_write_and_query_metrics_flow(self):
        db = self._loaded_db()
        db.execute_sql("SELECT * FROM transactions WHERE tenant_id = 't1'")
        metrics = db.telemetry.metrics
        assert metrics.total("esdb_writes_total") == 40.0
        assert metrics.total("engine_writes_total") == 40.0
        assert metrics.total("routing_writes_total") == 40.0
        assert metrics.total("esdb_queries_total") >= 1.0
        assert metrics.total("optimizer_plan_picks_total") >= 1.0

    def test_rendered_dashboard_built_on_registry(self):
        db = self._loaded_db()
        db.execute_sql("SELECT * FROM transactions WHERE tenant_id = 't1'")
        page = render_dashboard(snapshot(db))
        assert "40 writes" in page
        assert "optimizer picks:" in page
        assert "write latency:" in page

    def test_disabled_facade_still_works(self):
        from repro.esdb import EsdbConfig

        db = ESDB(EsdbConfig(telemetry_enabled=False))
        for i in range(5):
            db.write(make_log(i, tenant="t1", created=float(i)))
        result = db.execute_sql("SELECT * FROM transactions WHERE tenant_id = 't1'")
        assert result is not None
        assert db.telemetry is NULL_TELEMETRY
        assert "5 writes" in render_dashboard(snapshot(db))

"""Tests for the performance-history layer: sparklines, ring-buffered
time series, registry sampling, derivations, and the ESDB/dashboard wiring."""

from __future__ import annotations

import pytest

from repro import ESDB, EsdbConfig
from repro.cluster import ClusterTopology
from repro.errors import ConfigurationError
from repro.obsv import cat_timeseries, render_dashboard, snapshot
from repro.telemetry import MetricsRegistry
from repro.telemetry.timeseries import (
    DASHBOARD_SERIES,
    MAX_SERIES,
    SAMPLE_INTERVAL,
    SERIES_CAPACITY,
    SPARK_BARS,
    SPARK_GAP,
    CounterRate,
    HistogramQuantile,
    HitRatio,
    LabelSpread,
    TimeSeries,
    TimeSeriesStore,
    install_esdb_derivations,
    sparkline,
)
from tests.conftest import make_log

SMALL = ClusterTopology(num_nodes=2, num_shards=8, replicas_per_shard=0)


def small_db(**overrides) -> ESDB:
    config = EsdbConfig(topology=SMALL, auto_refresh_every=None, **overrides)
    return ESDB(config)


# -- sparkline rendering -------------------------------------------------------


class TestSparkline:
    def test_empty_series_is_all_padding(self):
        out = sparkline([], width=8)
        assert out == " " * 8

    def test_single_point_renders_one_bar(self):
        out = sparkline([5.0], width=8)
        assert len(out) == 8
        assert out.endswith(SPARK_BARS[0])
        assert out[:-1] == " " * 7

    def test_constant_series_renders_lowest_bar(self):
        out = sparkline([3.0] * 5, width=8)
        assert out == "   " + SPARK_BARS[0] * 5

    def test_huge_dynamic_range_stays_in_ramp(self):
        out = sparkline([0.0, 1e-300, 1e300], width=3)
        assert len(out) == 3
        assert set(out) <= set(SPARK_BARS)
        assert out[-1] == SPARK_BARS[-1]

    def test_none_and_nan_become_gaps(self):
        out = sparkline([1.0, None, float("nan"), 2.0], width=4)
        assert len(out) == 4
        assert out[1] == SPARK_GAP
        assert out[2] == SPARK_GAP

    def test_all_nan_is_gaps_not_error(self):
        out = sparkline([None, float("nan"), float("inf")], width=6)
        assert out == "   " + SPARK_GAP * 3

    def test_non_numeric_values_become_gaps(self):
        out = sparkline(["oops", object(), 1.0], width=3)
        assert out[0] == SPARK_GAP and out[1] == SPARK_GAP

    def test_width_is_stable_for_long_series(self):
        out = sparkline(list(range(1000)), width=10)
        assert len(out) == 10
        # Shows the last 10 samples, which are ramp-shaped.
        assert out[-1] == SPARK_BARS[-1]
        assert out[0] == SPARK_BARS[0]

    def test_monotone_ramp_is_monotone_bars(self):
        out = sparkline([0, 1, 2, 3, 4, 5, 6, 7], width=8)
        assert out == SPARK_BARS

    def test_width_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            sparkline([1.0], width=0)


# -- TimeSeries ring buffer ----------------------------------------------------


class TestTimeSeries:
    def test_append_and_order(self):
        series = TimeSeries("s", capacity=4)
        for i in range(3):
            series.append(float(i), float(i * 10))
        assert series.times() == [0.0, 1.0, 2.0]
        assert series.values() == [0.0, 10.0, 20.0]
        assert series.last() == (2.0, 20.0)

    def test_ring_overwrites_oldest(self):
        series = TimeSeries("s", capacity=3)
        for i in range(10):
            series.append(float(i), float(i))
        assert len(series) == 3
        assert series.times() == [7.0, 8.0, 9.0]
        assert series.last() == (9.0, 9.0)

    def test_summary_is_nan_safe(self):
        series = TimeSeries("s", capacity=8)
        series.append(0.0, 1.0)
        series.append(1.0, float("nan"))
        series.append(2.0, 3.0)
        summary = series.summary()
        assert summary["count"] == 3
        assert summary["min"] == 1.0 and summary["max"] == 3.0
        assert summary["mean"] == 2.0
        assert summary["last"] == 3.0

    def test_capacity_validated(self):
        with pytest.raises(ConfigurationError):
            TimeSeries("s", capacity=1)


# -- TimeSeriesStore sampling --------------------------------------------------


class TestTimeSeriesStore:
    def test_sampling_cadence_under_logical_clock(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(1)
        store = TimeSeriesStore(registry)
        assert store.maybe_sample(0.0) is True  # anchor sample
        assert store.maybe_sample(0.5) is False
        assert store.maybe_sample(0.99) is False
        assert store.maybe_sample(1.0) is True
        assert store.maybe_sample(5.0) is True  # clock jump: one sample
        assert store.samples_taken == 3
        assert store.get("c").times() == [0.0, 1.0, 5.0]

    def test_counters_gauges_and_histograms_sampled(self):
        registry = MetricsRegistry()
        registry.counter("writes_total", tenant="a").inc(3)
        registry.gauge("queue_depth").set(7.0)
        registry.histogram("latency_seconds").observe(0.01)
        store = TimeSeriesStore(registry)
        store.sample(0.0)
        assert store.get("writes_total", tenant="a").values() == [3.0]
        assert store.get("queue_depth").values() == [7.0]
        # Histograms contribute their observation count.
        assert store.get("latency_seconds.count").values() == [1.0]

    def test_max_series_cap_counts_drops(self):
        registry = MetricsRegistry()
        for i in range(MAX_SERIES + 6):
            registry.counter("c", tenant=f"t{i}").inc(1)
        store = TimeSeriesStore(registry)
        store.sample(0.0)
        assert len(store.all_series()) == MAX_SERIES
        assert store.dropped_series == 6
        snapshot = store.snapshot()
        assert snapshot["dropped_series"] == 6
        # A second round re-drops the same six metrics: still six drops.
        store.sample(1.0)
        assert len(store.all_series()) == MAX_SERIES
        assert all(len(series) == 2 for series in store.all_series())
        assert store.dropped_series == 6

    def test_store_series_keep_the_last_series_capacity_points(self):
        store = TimeSeriesStore()
        for t in range(SERIES_CAPACITY + 10):
            store.record("x", float(t), float(t))
        series = store.get("x")
        assert len(series) == SERIES_CAPACITY
        assert series.times()[0] == 10.0
        assert series.last() == (SERIES_CAPACITY + 9.0, SERIES_CAPACITY + 9.0)

    def test_derived_series_win_the_max_series_cap(self):
        """Derivations are recorded before raw registry series, so a
        registry that alone fills the cap never crowds out a derived row."""
        registry = MetricsRegistry()
        for i in range(MAX_SERIES):
            registry.counter("writes_total", tenant=f"t{i}").inc(1)
        store = TimeSeriesStore(registry)
        store.add_derivation(CounterRate("writes_per_s", "writes_total"))
        store.sample(0.0)
        assert store.get("writes_per_s") is not None
        assert len(store.all_series()) == MAX_SERIES
        assert store.dropped_series == 1

    def test_store_level_queries(self):
        store = TimeSeriesStore()
        store.record("x", 0.0, 10.0)
        store.record("x", 1.0, 30.0)
        assert store.get("x").points() == [(0.0, 10.0), (1.0, 30.0)]
        assert store.names() == ["x"]
        assert store.get("missing") is None

    def test_snapshot_filters_names(self):
        store = TimeSeriesStore()
        store.record("a", 0.0, 1.0)
        store.record("b", 0.0, 2.0)
        snapshot = store.snapshot(names=["b"])
        assert snapshot["interval"] == SAMPLE_INTERVAL
        assert snapshot["capacity"] == SERIES_CAPACITY
        assert [s["name"] for s in snapshot["series"]] == ["b"]

class TestDerivations:
    def test_counter_rate(self):
        registry = MetricsRegistry()
        counter = registry.counter("writes_total")
        store = TimeSeriesStore(registry)
        store.add_derivation(CounterRate("writes_per_s", "writes_total"))
        counter.inc(5)
        store.sample(0.0)
        counter.inc(20)
        store.sample(2.0)
        assert store.get("writes_per_s").values() == [0.0, 10.0]

    def test_hit_ratio(self):
        registry = MetricsRegistry()
        hits = registry.counter("cache_hits_total", cache="x")
        misses = registry.counter("cache_misses_total", cache="x")
        store = TimeSeriesStore(registry)
        store.add_derivation(
            HitRatio("hit_pct", "cache_hits_total", "cache_misses_total")
        )
        store.sample(0.0)
        hits.inc(3)
        misses.inc(1)
        store.sample(1.0)
        store.sample(2.0)  # idle interval: 0 traffic -> 0%
        assert store.get("hit_pct").values() == [0.0, 75.0, 0.0]

    def test_histogram_quantile_scales_and_tracks_worst_label(self):
        registry = MetricsRegistry()
        fast = registry.histogram("op_seconds", op="fast")
        slow = registry.histogram("op_seconds", op="slow")
        for _ in range(50):
            fast.observe(0.001)
            slow.observe(0.5)
        store = TimeSeriesStore(registry)
        store.add_derivation(
            HistogramQuantile("op_p99_ms", "op_seconds", 0.99, scale=1e3)
        )
        store.sample(0.0)
        (value,) = store.get("op_p99_ms").values()
        assert value == pytest.approx(max(h.quantile(0.99) for h in (fast, slow)) * 1e3)
        assert value > 100.0  # dominated by the slow labeled series, in ms

    def test_label_spread_max_and_mean(self):
        registry = MetricsRegistry()
        a = registry.counter("writes_total", shard="0")
        b = registry.counter("writes_total", shard="1")
        store = TimeSeriesStore(registry)
        store.add_derivation(LabelSpread("shard_writes", "writes_total"))
        store.sample(0.0)
        a.inc(9)
        b.inc(1)
        store.sample(1.0)
        assert store.get("shard_writes.max").values() == [0.0, 9.0]
        assert store.get("shard_writes.mean").values() == [0.0, 5.0]

    def test_derivations_silent_when_metric_never_registered(self):
        registry = MetricsRegistry()
        store = install_esdb_derivations(TimeSeriesStore(registry))
        store.sample(0.0)
        store.sample(1.0)
        assert store.all_series() == []
        assert store.samples_taken == 2


# -- ESDB facade integration ---------------------------------------------------


class TestEsdbIntegration:
    def write_run(self, db: ESDB, count: int = 60, spacing: float = 0.1) -> None:
        for i in range(count):
            db.write(make_log(i, tenant=f"t{i % 5}", created=i * spacing))

    def test_sampling_follows_the_logical_clock(self):
        db = small_db()
        self.write_run(db, count=60, spacing=0.1)  # clock reaches 5.9s
        store = db.timeseries
        assert store is not None
        writes = store.get("esdb.writes_per_s")
        # 1s logical interval over 5.9 logical seconds: anchor + 5 samples.
        assert writes.times() == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]
        # 10 writes per logical second after the anchor, exactly.
        assert writes.values() == [0.0, 10.0, 10.0, 10.0, 10.0, 10.0]

    def test_deterministic_across_identical_runs(self):
        # Counter-derived series depend only on the logical clock and the
        # write stream, so two identical runs must match bit-for-bit.
        # (The p99 series sample measured wall-clock durations and are
        # intentionally excluded.)
        def run() -> dict:
            db = small_db()
            self.write_run(db, count=80, spacing=0.05)
            store = db.timeseries
            return {
                name: store.get(name).values()
                for _, name in DASHBOARD_SERIES
                if "p99" not in name and store.get(name) is not None
            }

        first, second = run(), run()
        assert first == second
        assert first["esdb.writes_per_s"]  # non-empty

    def test_dashboard_renders_sparklines_for_key_series(self):
        db = small_db()
        self.write_run(db)
        db.refresh()
        db.execute_sql("SELECT * FROM transaction_logs WHERE tenant_id = 't0'")
        db.execute_sql("SELECT * FROM transaction_logs WHERE tenant_id = 't0'")
        db.timeseries.sample(db.now)
        text = render_dashboard(snapshot(db))
        assert "-- performance history --" in text
        for label in ("writes/s", "write p99 ms", "cache hit %", "hot shard max"):
            assert label in text
        assert any(bar in text for bar in SPARK_BARS)

    def test_rendered_dashboard_states_history_samples(self):
        db = small_db()
        self.write_run(db)
        page = render_dashboard(snapshot(db))
        assert f"  {db.timeseries.samples_taken} samples @ " in page
        assert "writes/s" in page

    def test_cat_timeseries_lists_series(self):
        db = small_db()
        self.write_run(db)
        table = cat_timeseries(db)
        names = [row[0] for row in table.rows]
        assert "esdb.writes_per_s" in names
        rendered = table.render()
        assert "spark" in rendered

    def test_snapshot_contains_timeseries(self):
        db = small_db()
        self.write_run(db)
        section = snapshot(db)["cluster"]["timeseries"]
        assert section["samples"] == db.timeseries.samples_taken > 0
        names = {s["name"] for s in section["series"]}
        assert "esdb.writes_per_s" in names

    def test_sample_timeseries_advances_clock(self):
        db = small_db()
        db.write(make_log(1, tenant="t", created=0.0))
        before = db.timeseries.samples_taken
        db.advance_clock(10.0)
        db.timeseries.sample(10.0)
        assert db.timeseries.samples_taken == before + 1
        assert db.now == 10.0

    def test_memory_bounded_over_long_run(self):
        # A 10k-write run over 500 logical seconds, one sample each, must
        # stay within the 240-sample rings.
        db = small_db()
        for i in range(10_000):
            db.write(make_log(i, tenant=f"t{i % 7}", created=i * 0.05))
        store = db.timeseries
        assert SERIES_CAPACITY == 240
        assert store.samples_taken > SERIES_CAPACITY  # the ring actually wrapped
        assert store.all_series()  # and something was recorded
        for series in store.all_series():
            assert len(series) <= SERIES_CAPACITY


class TestDisabledModes:
    def test_telemetry_disabled_is_well_formed(self):
        db = small_db(telemetry_enabled=False)
        for i in range(30):
            db.write(make_log(i, tenant="t", created=i * 0.2))
        store = db.timeseries
        assert store is not None
        assert store.samples_taken > 0  # the sampler still ticks...
        assert store.all_series() == []  # ...but records nothing
        snap = snapshot(db)
        text = render_dashboard(snap)
        assert "-- performance history --" in text
        assert "(no samples)" in text
        assert snap["cluster"]["timeseries"]["series"] == []
        assert cat_timeseries(db).rows == []

    def test_timeseries_disabled_is_well_formed(self):
        db = small_db(timeseries_enabled=False)
        db.write(make_log(1, tenant="t", created=0.0))
        assert db.timeseries is None
        snap = snapshot(db)
        assert "(history disabled)" in render_dashboard(snap)
        assert snap["cluster"]["timeseries"] == {
            "interval": 0.0,
            "capacity": 0,
            "samples": 0,
            "dropped_series": 0,
            "series": [],
        }
        assert cat_timeseries(db).rows == []

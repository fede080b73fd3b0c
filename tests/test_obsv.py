"""Unit tests for repro.obsv: skew statistics, windows, alerts, slow logs,
cat tables and configuration validation."""

from __future__ import annotations

import math

import pytest

from repro.balancer.monitor import MAX_WINDOWS, LoadWindow, WorkloadMonitor
from repro.errors import ConfigurationError
from repro.obsv import (
    Alert,
    CatTable,
    ObsvConfig,
    Observer,
    SlowLog,
    annotation_reason,
    coefficient_of_variation,
    detect_alerts,
    gini,
    max_mean_ratio,
    rule_measurement,
    shard_heatmap,
    summarize_windows,
    window_stats,
)
from repro.obsv.config import INDEX_WARN_SECONDS, SEARCH_WARN_SECONDS
from repro.telemetry import MetricsRegistry, Tracer
from repro.telemetry.runtime import NULL_REGISTRY


class TestImbalanceStatistics:
    """Hand-computed reference values for the three imbalance measures."""

    def test_one_hot_shard_of_four(self):
        # Loads [10, 0, 0, 0]: mean 2.5, population sd sqrt(18.75).
        loads = [10.0, 0.0, 0.0, 0.0]
        assert coefficient_of_variation(loads) == pytest.approx(math.sqrt(3.0))
        assert gini(loads) == pytest.approx(0.75)
        assert max_mean_ratio(loads) == pytest.approx(4.0)

    def test_sixty_twenty_twenty_tenants(self):
        loads = [60.0, 20.0, 20.0]
        assert coefficient_of_variation(loads) == pytest.approx(math.sqrt(2.0) / 2.5)
        assert gini(loads) == pytest.approx(4.0 / 15.0)
        assert max_mean_ratio(loads) == pytest.approx(1.8)

    def test_uniform_load_has_no_imbalance(self):
        loads = [5.0, 5.0, 5.0, 5.0]
        assert coefficient_of_variation(loads) == 0.0
        assert gini(loads) == pytest.approx(0.0)
        assert max_mean_ratio(loads) == pytest.approx(1.0)

    def test_empty_and_zero_inputs_are_quiet(self):
        for stat in (coefficient_of_variation, gini, max_mean_ratio):
            assert stat([]) == 0.0
            assert stat([0.0, 0.0]) == 0.0


def _observed(num_shards: int, config=None, metrics=NULL_REGISTRY, window: float = 10.0):
    """A workload monitor and the observer that reads its windows."""
    monitor = WorkloadMonitor(window_seconds=window)
    return monitor, Observer(monitor, num_shards, config or ObsvConfig(), metrics=metrics)


def _route(monitor, observer, tenant, shard, now):
    """Count one routed write the way the facade does: a window the monitor
    closes on the way is handed to the observer."""
    if monitor.record_write(tenant, shard, now):
        observer.roll()


def _close(monitor, observer, now):
    """Close the open window the way ``ESDB.rebalance`` does."""
    monitor.roll_window(now)
    observer.roll()


class TestWindowStats:
    def test_stats_cover_all_shards(self):
        monitor = WorkloadMonitor(window_seconds=10.0)
        for _ in range(10):
            monitor.record_write("hot", 0, 1.0)
        monitor.roll_window(10.0)
        stats = window_stats(monitor.windows[-1], num_shards=4)
        # Shard loads [10, 0, 0, 0] including the idle shards.
        assert stats.shard_cv == pytest.approx(math.sqrt(3.0))
        assert stats.shard_gini == pytest.approx(0.75)
        assert stats.shard_max_mean == pytest.approx(4.0)
        assert stats.writes == 10
        assert stats.shard_loads == ((0, 10),)
        assert (stats.start, stats.end) == (0.0, 10.0)

    def test_tenant_stats_cover_observed_tenants_only(self):
        window = LoadWindow(0.0, 10.0, {"b": 20, "a": 60, "c": 20}, {0: 100})
        stats = window_stats(window, num_shards=8)
        assert stats.tenant_cv == pytest.approx(math.sqrt(2.0) / 2.5)
        assert stats.tenant_gini == pytest.approx(4.0 / 15.0)
        assert stats.tenant_max_mean == pytest.approx(1.8)
        assert stats.tenant_loads == (("a", 60), ("b", 20), ("c", 20))
        assert stats.writes == 100

    def test_monitor_windows_tumble(self):
        monitor = WorkloadMonitor(window_seconds=5.0)
        assert monitor.record_write("t", 0, 4.9) is False
        assert monitor.record_write("t", 1, 5.0) is True
        assert monitor.windows[-1] == LoadWindow(0.0, 5.0, {"t": 1}, {0: 1})
        monitor.roll_window(10.0)
        assert monitor.windows[-1] == LoadWindow(5.0, 10.0, {"t": 1}, {1: 1})
        assert len(monitor.windows) == 2

    def test_window_retention_bounded(self):
        monitor, observer = _observed(num_shards=2, window=1.0)
        for i in range(100):
            _route(monitor, observer, "t", 0, float(i))
        assert len(monitor.windows) == len(observer.windows) == MAX_WINDOWS
        assert observer.windows[-1].end == 99.0
        assert [(w.start, w.end) for w in observer.windows] == [
            (w.start, w.end) for w in monitor.windows
        ]

    def test_summarize_windows(self):
        assert summarize_windows([]) == {"windows": 0}
        stats = window_stats(LoadWindow(0.0, 1.0, {"a": 3}, {0: 3}), num_shards=2)
        summary = summarize_windows([stats])
        assert summary["windows"] == 1
        assert summary["total_writes"] == 3
        assert summary["tenant_max_share_last"] == pytest.approx(1.0)


class TestAlerts:
    def _stats(self):
        window = LoadWindow(0.0, 10.0, {"whale": 60, "b": 20, "c": 20}, {0: 60, 1: 40})
        return window_stats(window, num_shards=4)

    def test_hot_tenant_and_hot_shard_detection(self):
        stats = self._stats()
        alerts = detect_alerts(stats, hot_tenant_share=0.5, hot_shard_ratio=2.0)
        kinds = {(a.kind, a.subject) for a in alerts}
        assert ("hot_tenant", "whale") in kinds
        assert ("hot_shard", "shard-0") in kinds
        hot = next(a for a in alerts if a.kind == "hot_tenant")
        assert hot.measurement["share"] == pytest.approx(0.6)
        assert hot.measurement["tenant_cv"] == pytest.approx(math.sqrt(2.0) / 2.5)
        assert hot.time == 10.0

    def test_thresholds_gate_alerts(self):
        stats = self._stats()
        assert detect_alerts(stats, hot_tenant_share=0.7, hot_shard_ratio=10.0) == []
        # share=0.2 catches all three tenants.
        alerts = detect_alerts(stats, hot_tenant_share=0.2, hot_shard_ratio=10.0)
        assert sorted(a.subject for a in alerts) == ["b", "c", "whale"]

    def test_empty_window_raises_nothing(self):
        stats = window_stats(LoadWindow(0.0, 1.0, {}, {}), num_shards=2)
        assert detect_alerts(stats, hot_tenant_share=0.1, hot_shard_ratio=1.0) == []

    def test_alert_round_trips_and_describes(self):
        stats = self._stats()
        alert = detect_alerts(stats, hot_tenant_share=0.5, hot_shard_ratio=100.0)[0]
        assert isinstance(alert, Alert)
        payload = alert.to_dict()
        assert payload["kind"] == "hot_tenant"
        assert payload["subject"] == "whale"
        assert "whale" in alert.describe()

    def test_rule_measurement_and_annotation_reason(self):
        stats = self._stats()
        measurement = rule_measurement(stats, "whale")
        assert measurement["share"] == pytest.approx(0.6)
        assert measurement["window_start"] == 0.0
        assert measurement["window_end"] == 10.0
        reason = annotation_reason("whale", 4, measurement)
        assert "whale" in reason
        assert "60.0%" in reason
        assert "offset 4" in reason
        assert rule_measurement(stats, "never-seen") is None
        assert "no window measurement" in annotation_reason("t", 2, None)


class TestSlowLog:
    def test_levels_follow_thresholds(self):
        log = SlowLog("index", warn_seconds=0.1, info_seconds=0.01)
        assert log.level_for(0.005) is None
        assert log.level_for(0.01) == "info"
        assert log.level_for(0.1) == "warn"
        assert log.record(time=1.0, elapsed=0.005) is None
        entry = log.record(time=1.0, elapsed=0.2, tenant="t1", shard=3, detail="x")
        assert entry.level == "warn"
        assert log.counts == {"warn": 1, "info": 0}

    def test_ring_buffer_keeps_monotone_counts(self):
        log = SlowLog("search", warn_seconds=1.0, info_seconds=0.0, capacity=5)
        for i in range(20):
            log.record(time=float(i), elapsed=0.5, detail=f"q{i}")
        assert len(log) == 5
        assert log.counts["info"] == 20
        assert [e.detail for e in log.tail(3)] == ["q17", "q18", "q19"]

    def test_trace_attachment(self):
        tracer = Tracer()
        with tracer.span("write") as span:
            with tracer.span("write.index"):
                pass
        log = SlowLog("index", warn_seconds=10.0, info_seconds=0.0)
        log.record(time=0.0, elapsed=0.002, trace=span)
        log.record(time=1.0, elapsed=0.009, tenant="t9")
        first = log.tail()[0]
        assert first.trace is span
        assert "trace" not in first.to_dict()
        # In a snapshot the entry's trace id resolves to its tree in `traces`.
        from repro import ESDB, EsdbConfig
        from repro.cluster import ClusterTopology
        from repro.obsv import snapshot
        from tests.conftest import make_log

        db = ESDB(
            EsdbConfig(
                topology=ClusterTopology(num_nodes=2, num_shards=4),
                obsv=ObsvConfig(index_info_seconds=0.0, search_info_seconds=0.0),
            )
        )
        db.write(make_log(1, tenant="t9"))
        snap = snapshot(db)
        (entry,) = snap["cluster"]["obsv"]["slowlog"]["index"]
        (tree,) = [t for t in snap["traces"] if t.get("trace_id") == entry["trace_id"]]
        assert [child["name"] for child in tree["children"]] == ["write.route", "write.index"]

    def test_detail_clipped(self):
        log = SlowLog("search", warn_seconds=0.0, info_seconds=0.0)
        entry = log.record(time=0.0, elapsed=1.0, detail="x" * 1000)
        assert len(entry.detail) == 160

    def test_threshold_validation(self):
        with pytest.raises(ConfigurationError):
            SlowLog("index", warn_seconds=0.01, info_seconds=0.1)
        with pytest.raises(ConfigurationError):
            SlowLog("index", warn_seconds=1.0, info_seconds=0.1, capacity=0)


class TestObserver:
    def test_auto_roll_aligns_with_window_and_counts_alert_metrics(self):
        registry = MetricsRegistry()
        monitor, observer = _observed(
            4, ObsvConfig(index_info_seconds=0.0), metrics=registry
        )
        for now in [1.0] * 10 + [10.0]:
            # Crossing the boundary closes the monitor's open window first.
            _route(monitor, observer, "hot", 0, now)
            observer.record_write("hot", 0, elapsed=0.001, now=now)
        assert len(observer.windows) == 1
        assert observer.windows[0].writes == 10
        assert (observer.windows[0].start, observer.windows[0].end) == (0.0, 10.0)
        alerts = list(observer.alerts)
        assert [a.kind for a in alerts] == ["hot_tenant", "hot_shard"]
        assert registry.value("obsv_alerts_total", kind="hot_tenant") == 1.0
        assert registry.value(
            "obsv_slowlog_entries_total", log="index", level="info"
        ) == 11.0

    def test_snapshot_shape(self):
        monitor, observer = _observed(2, ObsvConfig(index_info_seconds=0.0))
        _route(monitor, observer, "t", 0, 1.0)
        observer.record_write("t", 0, elapsed=0.5, now=1.0)
        observer.record_search("t", elapsed=0.9, now=2.0, detail="SELECT 1")
        _close(monitor, observer, 10.0)
        snapshot = observer.snapshot()
        assert snapshot["skew"]["summary"]["windows"] == 1
        assert snapshot["slowlog"]["counts"]["index"] == {"warn": 1, "info": 0}
        assert snapshot["slowlog"]["search"][0]["detail"] == "SELECT 1"
        assert isinstance(snapshot["alerts"], list)


class TestObserverFixedSettings:
    """The thresholds and bounds ``ObsvConfig`` no longer carries, reached
    through an observer fed on the logical clock."""

    def test_slow_log_levels_split_at_the_fixed_warn_thresholds(self):
        _, observer = _observed(num_shards=1)
        for elapsed in (0.009, 0.010, INDEX_WARN_SECONDS - 0.001, INDEX_WARN_SECONDS):
            observer.record_write("t", 0, elapsed=elapsed, now=1.0)
        for elapsed in (0.049, 0.050, SEARCH_WARN_SECONDS):
            observer.record_search("t", elapsed=elapsed, now=1.0)
        assert observer.index_slowlog.counts == {"warn": 1, "info": 2}
        assert observer.search_slowlog.counts == {"warn": 1, "info": 1}

    def test_hot_tenant_alert_from_a_fifth_of_the_window(self):
        monitor, observer = _observed(num_shards=50)
        writes = [("edge", 0)] * 20 + [("under", 1)] * 19
        writes += [(f"t{i}", i) for i in range(2, 63)]
        for tenant, shard in writes:  # 100 writes over 50 shards
            _route(monitor, observer, tenant, shard % 50, 1.0)
        _close(monitor, observer, 10.0)
        hot = [a.subject for a in observer.alerts if a.kind == "hot_tenant"]
        assert hot == ["edge"]  # 20% alerts, 19% does not

    def test_hot_shard_alert_from_three_times_the_mean(self):
        for hottest, fired in ((6, True), (5, False)):
            monitor, observer = _observed(num_shards=4)
            loads = [hottest] + [(8 - hottest) // 3 + (i < (8 - hottest) % 3) for i in range(3)]
            tenant = 0
            for shard, load in enumerate(loads):
                for _ in range(load):  # one write per tenant: no hot tenant
                    _route(monitor, observer, f"t{tenant}", shard, 1.0)
                    tenant += 1
            _close(monitor, observer, 10.0)
            kinds = [a.kind for a in observer.alerts]
            assert ("hot_shard" in kinds) is fired, loads

    def test_alert_ring_keeps_the_last_256(self):
        monitor, observer = _observed(num_shards=1)
        for window in range(300):
            _route(monitor, observer, "whale", 0, window * 10.0)
        _close(monitor, observer, 3000.0)
        assert len(observer.alerts) == 256
        assert observer.alerts[-1].measurement["window_start"] == 2990.0


class TestObsvConfig:
    def test_off_disables(self):
        assert ObsvConfig.off().enabled is False

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ObsvConfig(index_info_seconds=-0.001)
        with pytest.raises(ConfigurationError):
            ObsvConfig(index_info_seconds=INDEX_WARN_SECONDS + 0.001)
        with pytest.raises(ConfigurationError):
            ObsvConfig(search_info_seconds=SEARCH_WARN_SECONDS + 0.001)


class TestCatTable:
    def test_render_aligns_and_right_justifies_numbers(self):
        table = CatTable(
            "demo",
            ("name", "count"),
            [("alpha", 1), ("b", 2000)],
        )
        lines = table.render().splitlines()
        assert lines[0].split() == ["name", "count"]
        # Numeric column right-aligned under its header.
        assert lines[1].endswith("    1")
        assert lines[2].endswith("2000")
        assert table.to_dicts() == [
            {"name": "alpha", "count": 1},
            {"name": "b", "count": 2000},
        ]

    def test_row_width_checked(self):
        with pytest.raises(ValueError):
            CatTable("demo", ("a", "b"), [("only-one",)])


class TestShardHeatmap:
    def test_scales_to_peak_and_wraps(self):
        counts = {i: 0 for i in range(70)}
        counts[0] = 100
        counts[69] = 50
        text = shard_heatmap(counts)
        lines = text.splitlines()
        assert len(lines) == 3  # 64 + 6 shards, plus the scale line
        assert lines[0].startswith("  [   0] |@")
        assert "scale:" in lines[-1]
        # A nonzero shard never renders as the zero character.
        row = lines[1]
        assert row.rstrip("|")[-1] != " "

    def test_empty(self):
        assert shard_heatmap({}) == "(no shards)"

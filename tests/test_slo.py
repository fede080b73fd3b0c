"""Tests for the SLO engine and the heavy-hitter profiler (repro.slo).

Covers the shared deterministic top-k core, Space-Saving sketch
guarantees (bounded memory, count-error bounds, deterministic eviction),
the burn-rate alert state machine on the logical clock, the facade wiring
(events, cat tables, dashboard, snapshot, bundle, stats report, CLI),
determinism across exec backends, and chaos-fingerprint identity with SLO
tracking on.
"""

from __future__ import annotations

import json
from collections import Counter

import pytest

from repro.cluster import ClusterTopology
from repro.errors import ConfigurationError, TenantThrottledError
from repro.esdb import ESDB, EsdbConfig
from repro.obsv import cat_hotkeys, cat_slo
from repro.slo import (
    HeavyHitterProfiler,
    SloConfig,
    SloEngine,
    SloObjective,
    SpaceSavingSketch,
    rank_top_k,
)
from repro.telemetry import MetricsRegistry
from repro.tenancy import TenancyConfig

TOPOLOGY = ClusterTopology(num_nodes=2, num_shards=8, replicas_per_shard=0)


def make_db(**extras) -> ESDB:
    return ESDB(EsdbConfig(topology=TOPOLOGY, consensus_interval=1.0, **extras))


def make_log(txn: int, tenant: str, created: float) -> dict:
    return {
        "transaction_id": txn,
        "tenant_id": tenant,
        "created_time": created,
        "status": txn % 3,
        "group": txn % 5,
        "amount": 100 + txn,
        "quantity": 1 + txn % 4,
        "auction_title": "demo item",
        "attributes": "attr_0001:v1;attr_0002:v2",
    }


# -- rank_top_k ----------------------------------------------------------------


class TestRankTopK:
    def test_count_desc_then_key_asc(self):
        ranked = rank_top_k({"b": 1, "a": 1, "c": 2})
        assert ranked == [("c", 2), ("a", 1), ("b", 1)]

    def test_tuple_weights_compare_elementwise(self):
        ranked = rank_top_k({"x": (2, 1), "y": (2, 5), "z": (3, 0)})
        assert [key for key, _ in ranked] == ["z", "y", "x"]

    def test_k_cuts_after_deterministic_order(self):
        ranked = rank_top_k({"b": 1, "a": 1, "c": 1}, k=2)
        assert [key for key, _ in ranked] == ["a", "b"]

    def test_insertion_order_is_irrelevant(self):
        forward = rank_top_k(dict([("a", 1), ("b", 1), ("c", 1)]))
        backward = rank_top_k(dict([("c", 1), ("b", 1), ("a", 1)]))
        assert forward == backward

    def test_negative_k_rejected(self):
        with pytest.raises(ConfigurationError):
            rank_top_k({"a": 1}, k=-1)


# -- Space-Saving sketch -------------------------------------------------------


class TestSpaceSavingSketch:
    def test_exact_below_capacity(self):
        sketch = SpaceSavingSketch(8)
        for _ in range(3):
            sketch.offer("hot")
        sketch.offer("cold")
        assert sketch.estimate("hot") == (3, 0.0)
        assert sketch.estimate("cold") == (1, 0.0)
        assert sketch.estimate("missing") is None

    def test_memory_bounded_and_error_bounds_on_adversarial_stream(self):
        """A stream engineered to evict constantly: every estimate must
        stay within the Space-Saving guarantees against exact counts."""
        sketch = SpaceSavingSketch(8)
        true = Counter()
        stream = [f"hot-{i % 4}" for i in range(400)]
        stream += [f"unique-{i}" for i in range(300)]
        # Interleave deterministically so evictions hit mid-stream.
        stream = [key for pair in zip(stream[:300], stream[300:]) for key in pair]
        for key in stream:
            sketch.offer(key)
            true[key] += 1
        assert len(sketch) <= 8
        for key, count, error in sketch.top():
            assert true[key] <= count  # never undercounts
            assert count - error <= true[key]  # overcount is bounded
            assert error <= sketch.max_error()
        assert sketch.max_error() == sketch.offered / sketch.capacity
        # The genuinely hot keys (freq > N/m) are guaranteed tracked.
        for i in range(4):
            assert sketch.estimate(f"hot-{i}") is not None

    def test_eviction_tie_break_is_smallest_key(self):
        sketch = SpaceSavingSketch(2)
        sketch.offer("b")
        sketch.offer("a")
        sketch.offer("c")  # ties at count 1: "a" must be evicted
        assert sketch.estimate("a") is None
        assert sketch.estimate("b") is not None
        assert sketch.estimate("c") == (2, 1)

    def test_int_and_str_keys_are_one_key(self):
        sketch = SpaceSavingSketch(4)
        sketch.offer(42)
        sketch.offer("42")
        assert sketch.estimate(42) == (2, 0.0)
        assert sketch.estimate("42") == (2, 0.0)

    def test_top_order_matches_rank_top_k(self):
        sketch = SpaceSavingSketch(8)
        for key, count in (("b", 2), ("a", 2), ("z", 5)):
            sketch.offer(key, count)
        assert [key for key, _, _ in sketch.top()] == ["z", "a", "b"]

    def test_decay_ages_counts_and_drops_dust(self):
        sketch = SpaceSavingSketch(8)
        sketch.offer("hot", 8)
        sketch.offer("dust", 1)
        sketch.decay(0.5)
        assert sketch.estimate("hot") == (4.0, 0.0)
        assert sketch.estimate("dust") is None  # aged below one occurrence
        assert sketch.offered == pytest.approx(4.5)

    def test_decay_then_offer_keeps_deterministic_eviction(self):
        a, b = SpaceSavingSketch(4), SpaceSavingSketch(4)
        for sketch in (a, b):
            for i in range(12):
                sketch.offer(f"k{i % 6}")
            sketch.decay(0.5)
            for i in range(12):
                sketch.offer(f"n{i}")
        assert a.top() == b.top()

    def test_concentration_tracks_top_share(self):
        sketch = SpaceSavingSketch(8)
        assert sketch.concentration() == 0.0
        sketch.offer("hot", 3)
        sketch.offer("cold", 1)
        assert sketch.concentration() == pytest.approx(0.75)

    def test_concentration_consistent_after_decay(self):
        sketch = SpaceSavingSketch(8)
        sketch.offer("hot", 8)
        sketch.offer("warm", 4)
        sketch.decay(0.5)
        assert sketch.concentration() == pytest.approx(4.0 / 6.0)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            SpaceSavingSketch(0)
        sketch = SpaceSavingSketch(2)
        with pytest.raises(ConfigurationError):
            sketch.offer("x", 0)
        with pytest.raises(ConfigurationError):
            sketch.decay(1.5)

    def test_to_dict_shape(self):
        sketch = SpaceSavingSketch(4)
        sketch.offer("k", 3)
        payload = sketch.to_dict()
        assert payload["capacity"] == 4
        assert payload["tracked"] == 1
        assert payload["top"][0] == {"key": "k", "count": 3, "error": 0.0}


# -- SloConfig / SloObjective --------------------------------------------------


class TestSloConfig:
    def test_defaults_cover_latency_and_availability(self):
        config = SloConfig(enabled=True)
        kinds = {(o.op, o.kind) for o in config.objectives}
        assert kinds == {
            ("write", "latency"), ("query", "latency"),
            ("write", "error_rate"), ("query", "error_rate"),
        }
        for objective in config.objectives:
            assert objective.budget == pytest.approx(1.0 - objective.objective)

    def test_off_is_disabled(self):
        assert not SloConfig.off().enabled
        assert not SloConfig().enabled

    def test_objective_validation(self):
        with pytest.raises(ConfigurationError):
            SloObjective("bad", "truncate", "latency", 0.99)
        with pytest.raises(ConfigurationError):
            SloObjective("bad", "write", "availability", 0.99)
        with pytest.raises(ConfigurationError):
            SloObjective("bad", "write", "latency", 1.0)
        with pytest.raises(ConfigurationError):
            SloConfig(enabled=True, burn_threshold=0.0)
        with pytest.raises(ConfigurationError):
            SloConfig(enabled=True, fast_window_seconds=60.0,
                      slow_window_seconds=30.0)


# -- SloEngine -----------------------------------------------------------------


def error_rate_config(**overrides) -> SloConfig:
    defaults = dict(
        enabled=True,
        objectives=(
            SloObjective("write-availability", "write", "error_rate", 0.99),
        ),
        bucket_seconds=1.0,
        fast_window_seconds=5.0,
        slow_window_seconds=30.0,
        burn_threshold=2.0,
        evaluation_interval_seconds=1.0,
    )
    defaults.update(overrides)
    return SloConfig(**defaults)


class TestSloEngine:
    def test_latency_classification_with_synthetic_elapsed(self):
        config = SloConfig(
            enabled=True,
            objectives=(
                SloObjective("wl", "write", "latency", 0.9,
                             threshold_seconds=0.010),
            ),
        )
        engine = SloEngine(config)
        engine.record("write", "t1", 0.005, 1.0)  # good
        engine.record("write", "t1", 0.020, 1.0)  # bad: over threshold
        engine.record("write", "t1", 0.0, 1.0, error=True)  # no latency sample
        engine.record("query", "t1", 0.5, 1.0)  # wrong op: ignored
        row = engine.status()[0]
        assert (row["good"], row["bad"]) == (1, 1)

    def test_budget_math(self):
        engine = SloEngine(error_rate_config())
        for i in range(90):
            engine.record("write", "t", 0.0, 1.0)
        for i in range(10):
            engine.record("write", "t", 0.0, 1.0, error=True)
        row = engine.status()[0]
        # bad fraction 0.1 against a 0.01 budget: 10x consumed.
        assert row["budget_remaining_pct"] == pytest.approx(100 * (1 - 10.0))

    def test_burn_fires_then_recovers(self):
        engine = SloEngine(error_rate_config())
        # Steady errors: 1 bad in 10 per second for 6 seconds -> burn 10x.
        now = 0.0
        for second in range(6):
            for i in range(9):
                engine.record("write", "t", 0.0, now + second)
            engine.record("write", "t", 0.0, now + second, error=True)
        fired = engine.evaluate(6.0)
        assert [alert.kind for alert in fired] == ["slo_burn"]
        assert fired[0].slo == "write-availability"
        assert fired[0].fast_burn >= 2.0 and fired[0].slow_burn >= 2.0
        # No double-fire while still burning.
        for i in range(10):
            engine.record("write", "t", 0.0, 7.0, error=True)
        assert engine.evaluate(7.0) == []
        # Clean traffic pushes the fast window under the threshold.
        for second in range(8, 16):
            for i in range(50):
                engine.record("write", "t", 0.0, float(second))
        fired = engine.evaluate(15.0)
        assert [alert.kind for alert in fired] == ["slo_recovered"]
        assert engine.status()[0]["state"] == "ok"
        assert engine.status()[0]["burn_alerts"] == 1

    def test_no_fire_without_traffic_in_fast_window(self):
        engine = SloEngine(error_rate_config())
        for i in range(10):
            engine.record("write", "t", 0.0, 0.0, error=True)
        # Way past the fast window: burn in the fast window is empty.
        assert engine.evaluate(100.0) == []

    def test_evaluation_schedule_anchors_on_first_call(self):
        engine = SloEngine(error_rate_config())
        assert engine.due(0.0)
        engine.evaluate(0.0)
        assert not engine.due(0.5)
        assert engine.maybe_evaluate(0.5) == []
        assert engine.evaluations == 1
        assert engine.due(1.0)

    def test_tenant_scoped_objective_only_counts_its_tenant(self):
        config = error_rate_config(
            objectives=(
                SloObjective("whale-writes", "write", "error_rate", 0.99,
                             tenant="whale"),
            ),
        )
        engine = SloEngine(config)
        engine.record("write", "whale", 0.0, 1.0, error=True)
        engine.record("write", "minnow", 0.0, 1.0, error=True)
        row = engine.status()[0]
        assert (row["good"], row["bad"]) == (0, 1)
        assert row["tenant"] == "whale"

    def test_gauges_exported_on_evaluate(self):
        metrics = MetricsRegistry()
        engine = SloEngine(error_rate_config(), metrics=metrics)
        for i in range(4):
            engine.record("write", "t", 0.0, 1.0, error=bool(i % 2))
        engine.evaluate(1.0)
        assert metrics.value(
            "slo_budget_remaining_pct", slo="write-availability"
        ) is not None
        assert metrics.value(
            "slo_burn_rate", slo="write-availability", window="fast"
        ) is not None
        assert metrics.value(
            "slo_good_total", slo="write-availability"
        ) == pytest.approx(2)

    def test_rolling_window_forgets_old_buckets(self):
        engine = SloEngine(error_rate_config())
        for i in range(10):
            engine.record("write", "t", 0.0, 0.0, error=True)
        # 40 logical seconds later the slow window no longer sees them.
        engine.record("write", "t", 0.0, 40.0)
        engine.evaluate(40.0)
        row = engine.status()[0]
        assert row["fast_burn"] == 0.0
        assert row["slow_burn"] == 0.0

    def test_snapshot_and_report_lines(self):
        engine = SloEngine(error_rate_config())
        engine.record("write", "t", 0.0, 1.0)
        engine.evaluate(1.0)
        snapshot = engine.snapshot()
        assert snapshot["enabled"] is True
        assert snapshot["evaluations"] == 1
        assert snapshot["objectives"][0]["slo"] == "write-availability"
        lines = engine.report_lines()
        assert lines[0].startswith("slo: 1 objective(s)")
        assert any("write-availability" in line for line in lines)


# -- HeavyHitterProfiler -------------------------------------------------------


def profiler_config(**overrides) -> SloConfig:
    defaults = dict(enabled=True, sketch_capacity=8, max_tracked_tenants=4,
                    decay_window_seconds=10.0, decay_factor=0.5)
    defaults.update(overrides)
    return SloConfig(**defaults)


class TestHeavyHitterProfiler:
    def test_tracks_keys_per_shard_and_tenant(self):
        profiler = HeavyHitterProfiler(profiler_config())
        for i in range(20):
            profiler.record_write("whale", i % 2, f"key-{i % 3}")
        assert profiler.hot_keys_for_tenant("whale")
        assert profiler.hot_keys_for_shard(0)
        assert profiler.hot_keys_for_shard(1)
        assert profiler.hot_keys_for_shard(9) == []
        assert profiler.hot_keys_for_tenant("nobody") == []

    def test_query_dimension(self):
        profiler = HeavyHitterProfiler(profiler_config())
        profiler.record_query("t1", "fp-1", ["tenant_id=whale", "status=1"])
        profiler.record_query("t1", "fp-1", ["tenant_id=whale"])
        assert profiler.hot_queries_for_tenant("t1")[0][0] == "fp-1"
        top_terms = [key for key, _, _ in profiler.filter_terms.top()]
        assert top_terms[0] == "tenant_id=whale"

    def test_bounded_over_zipf_run(self):
        """10k skewed writes: every sketch stays O(capacity) and the
        tenant maps stay capped at max_tracked_tenants."""
        config = profiler_config(max_tracked_tenants=16)
        profiler = HeavyHitterProfiler(config)
        for i in range(10_000):
            tenant = f"tenant-{(i * i + i) % 97}"  # ~97 distinct tenants
            profiler.record_write(tenant, i % 8, f"doc-{i}")
        assert len(profiler.routing_keys) <= config.sketch_capacity
        for sketch in profiler.shard_keys.values():
            assert len(sketch) <= config.sketch_capacity
        assert len(profiler.tenant_keys) <= 16
        assert profiler.dropped_tenants > 0

    def test_tenant_cap_never_grows(self):
        profiler = HeavyHitterProfiler(profiler_config(max_tracked_tenants=2))
        for name in ("a", "b", "c", "d", "a"):
            profiler.record_write(name, 0, "k")
        assert sorted(profiler.tenant_keys) == ["a", "b"]
        assert profiler.dropped_tenants == 2

    def test_decay_rolls_on_logical_window(self):
        profiler = HeavyHitterProfiler(profiler_config())
        profiler.record_write("t", 0, "old-key")
        assert not profiler.maybe_roll(0.0)  # anchors the schedule
        assert not profiler.maybe_roll(5.0)
        assert profiler.maybe_roll(10.0)
        assert profiler.decays == 1
        # Counts aged: a single offer decays to 0.5 and is dropped.
        assert profiler.routing_keys.estimate("old-key") is None

    def test_decay_disabled_with_zero_window(self):
        profiler = HeavyHitterProfiler(
            profiler_config(decay_window_seconds=0.0)
        )
        profiler.record_write("t", 0, "k")
        assert not profiler.maybe_roll(1e9)
        assert profiler.decays == 0

    def test_table_rows_deterministic_and_ordered(self):
        def build():
            profiler = HeavyHitterProfiler(profiler_config())
            for i in range(30):
                profiler.record_write(f"t{i % 3}", i % 2, f"k{i % 5}")
            profiler.record_query("t0", "fp", ["status=1"])
            return profiler.table_rows(k=3)

        rows = build()
        assert rows == build()
        dimensions = [row[0] for row in rows]
        assert dimensions == sorted(
            dimensions,
            key=["routing_key", "filter_term", "query_fingerprint"].index,
        )
        # Global scope leads each dimension; ranks restart from 1.
        assert rows[0][:4] == ("routing_key", "global", "-", 1)
        for row in rows:
            assert row[5] >= 0 and row[6] >= 0  # count, error

    def test_snapshot_shape(self):
        profiler = HeavyHitterProfiler(profiler_config())
        profiler.record_write("t", 3, "k")
        snapshot = profiler.snapshot()
        assert snapshot["enabled"] is True
        assert snapshot["sketch_capacity"] == 8
        assert "3" in snapshot["shards"]
        assert "t" in snapshot["tenants"]
        json.dumps(snapshot)  # JSON-ready


# -- facade integration --------------------------------------------------------


GOVERNED = TenancyConfig(
    enabled=True, write_rate=5.0, write_burst=10.0, queue_capacity=4
)


def governed_slo_db(**extras) -> ESDB:
    return make_db(
        tenancy=GOVERNED, slo=SloConfig(enabled=True), **extras
    )


def drive_whale(db: ESDB, writes: int = 300) -> int:
    """A deterministic whale-heavy stream; returns throttles seen."""
    throttled = 0
    for i in range(writes):
        tenant = "whale" if i % 10 < 6 else f"t{i % 7}"
        try:
            db.write(make_log(i, tenant, created=i * 0.05))
        except TenantThrottledError:
            throttled += 1
    return throttled


class TestEsdbSloIntegration:
    def test_disabled_by_default(self):
        db = make_db()
        assert db.slo is None and db.hotkeys is None
        db.write(make_log(0, "t", 0.0))
        assert db.events.counts().get("slo_burn", 0) == 0
        assert len(cat_slo(db)) == 0
        assert len(cat_hotkeys(db)) == 0

    def test_burn_alert_fires_and_lands_in_event_log(self):
        db = governed_slo_db()
        throttled = drive_whale(db)
        assert throttled > 0
        counts = db.events.counts()
        assert counts.get("slo_burn", 0) >= 1
        burn_events = db.events.query(kind="slo_burn")
        assert burn_events
        detail = burn_events[0].detail
        assert detail["slo"] == "write-availability"
        assert detail["fast_burn"] >= db.config.slo.burn_threshold
        assert "budget_remaining_pct" in detail

    # Latency objectives classify real elapsed wall time, which varies
    # run to run; determinism is pinned on the error-rate objectives
    # (driven by deterministic throttle decisions) and the sketches.
    AVAILABILITY_ONLY = SloConfig(
        enabled=True,
        objectives=(
            SloObjective("write-availability", "write", "error_rate", 0.99),
        ),
    )

    def test_same_seed_same_firing_ticks(self):
        def run():
            db = make_db(tenancy=GOVERNED, slo=self.AVAILABILITY_ONLY)
            drive_whale(db)
            ticks = [
                (alert.kind, alert.slo, alert.time)
                for alert in db.slo.alerts
            ]
            rows = cat_hotkeys(db).to_dicts()
            return ticks, rows

        first, second = run(), run()
        assert first[0] and first[0] == second[0]
        assert first[1] == second[1]

    def test_query_side_records_fingerprints_and_terms(self):
        db = make_db(slo=SloConfig(enabled=True))
        for i in range(10):
            db.write(make_log(i, "whale", created=i * 0.1))
        db.refresh()
        db.execute_sql("SELECT * FROM transaction_logs WHERE tenant_id = 'whale'")
        assert db.hotkeys.query_fingerprints.offered >= 1
        terms = [key for key, _, _ in db.hotkeys.filter_terms.top()]
        assert "tenant_id=whale" in terms
        rows = cat_slo(db).to_dicts()
        query_latency = next(r for r in rows if r["slo"] == "query-latency")
        assert query_latency["good"] + query_latency["bad"] >= 1

    def test_skew_alerts_name_heavy_hitters(self):
        db = make_db(slo=SloConfig(enabled=True))
        for i in range(220):
            tenant = "whale" if i % 10 < 8 else f"t{i % 5}"
            db.write(make_log(i, tenant, created=i * 0.1))
        alerts = [
            alert for alert in db.obsv.recent_alerts(50)
            if alert.kind == "hot_tenant" and alert.subject == "whale"
        ]
        assert alerts, "expected a hot-tenant alert from the whale stream"
        assert "hot_keys" in alerts[0].measurement
        assert alerts[0].measurement["hot_keys"]

    def test_slo_metrics_reach_prometheus_export(self):
        from repro.telemetry import to_prometheus

        db = governed_slo_db()
        drive_whale(db, 120)
        text = to_prometheus(db.telemetry.metrics)
        assert "slo_budget_remaining_pct" in text
        assert "slo_burn_rate" in text
        assert "slo_hotkey_concentration_pct" in text

    def test_derived_series_and_dashboard_sections(self):
        from repro.obsv import render_dashboard

        db = governed_slo_db()
        drive_whale(db)
        store = db.timeseries
        assert store.get("slo.budget_min_pct") is not None
        assert store.get("slo.burn_fast_max") is not None
        page = render_dashboard(db)
        assert "-- slo --" in page
        assert "-- heavy hitters --" in page
        assert "write-availability" in page

    def test_cluster_snapshot_sections_present_only_when_enabled(self):
        from repro.obsv import cluster_snapshot

        enabled = governed_slo_db()
        drive_whale(enabled, 80)
        snapshot = cluster_snapshot(enabled)
        assert snapshot["slo"]["enabled"] is True
        assert snapshot["hotkeys"]["enabled"] is True
        disabled = make_db()
        disabled.write(make_log(0, "t", 0.0))
        off = cluster_snapshot(disabled)
        assert "slo" not in off and "hotkeys" not in off

    def test_stats_report_sections_sorted_and_stable(self):
        db = governed_slo_db()
        drive_whale(db)
        report = db.stats_report()
        assert "slo: 4 objective(s)" in report
        assert "hotkeys: capacity=" in report
        # Sorted section order: hotkeys < slo < tenancy.
        assert (
            report.index("hotkeys: capacity=")
            < report.index("slo: 4 objective(s)")
            < report.index("tenancy:")
        )
        assert report == db.stats_report()

    def test_overhead_is_one_branch_when_off(self):
        db = make_db()
        assert db.config.slo.enabled is False
        assert "slo" not in db.stats_report()


# -- event-log behaviour with the new kinds ------------------------------------


class TestSloEventKinds:
    def test_ring_eviction_keeps_monotone_counts(self):
        from repro.telemetry import EventLog

        log = EventLog(capacity=4)
        for i in range(6):
            log.emit("slo_burn", time=float(i), tenant=None, slo="x")
        log.emit("slo_recovered", time=7.0)
        assert len(log) == 4  # ring evicted the oldest
        assert log.counts()["slo_burn"] == 6  # counters survive eviction
        assert log.counts()["slo_recovered"] == 1
        assert log.total == 7

    def test_cat_events_filters_slo_burn(self):
        from repro.obsv import cat_events

        db = governed_slo_db()
        drive_whale(db)
        table = cat_events(db, kind="slo_burn")
        assert len(table)
        assert all(row["kind"] == "slo_burn" for row in table.to_dicts())
        everything = cat_events(db)
        assert len(everything) > len(table)


# -- diagnostics bundle v2 -----------------------------------------------------


class TestBundleV2:
    def test_round_trip_with_slo_enabled(self):
        from repro.obsv import BUNDLE_SCHEMA_VERSION, validate_bundle

        db = governed_slo_db()
        drive_whale(db)
        bundle = db.diagnostics_bundle()
        assert bundle["schema_version"] == BUNDLE_SCHEMA_VERSION == 2
        assert validate_bundle(bundle) == []
        rehydrated = json.loads(json.dumps(bundle))
        assert validate_bundle(rehydrated) == []
        assert rehydrated["slo"]["enabled"] is True
        assert rehydrated["hotkeys"]["enabled"] is True
        assert any(
            alert["kind"] == "slo_burn" for alert in rehydrated["slo"]["alerts"]
        )

    def test_disabled_sections_well_formed(self):
        from repro.obsv import validate_bundle

        db = make_db()
        db.write(make_log(0, "t", 0.0))
        bundle = db.diagnostics_bundle()
        assert validate_bundle(bundle) == []
        assert bundle["slo"] == {
            "enabled": False, "evaluations": 0, "objectives": [], "alerts": [],
        }
        assert bundle["hotkeys"]["enabled"] is False

    def test_unknown_schema_version_rejected_clearly(self):
        from repro.obsv import BUNDLE_SCHEMA_VERSION, validate_bundle

        db = make_db()
        bundle = db.diagnostics_bundle()
        bundle["schema_version"] = BUNDLE_SCHEMA_VERSION + 1
        problems = validate_bundle(bundle)
        assert len(problems) == 1
        assert "unknown schema_version" in problems[0]
        assert str(BUNDLE_SCHEMA_VERSION) in problems[0]

    def test_lint_catches_malformed_slo_and_hotkeys(self):
        from repro.obsv import validate_bundle

        db = governed_slo_db()
        drive_whale(db, 120)
        bundle = json.loads(json.dumps(db.diagnostics_bundle()))
        bundle["slo"].pop("evaluations")
        bundle["slo"]["alerts"] = [{"kind": "martian"}]
        bundle["hotkeys"]["routing_keys"]["tracked"] = 10_000
        problems = validate_bundle(bundle)
        assert any("evaluations" in p for p in problems)
        assert any("unknown kind" in p for p in problems)
        assert any("tracked exceeds capacity" in p for p in problems)


# -- chaos fingerprint identity with SLO tracking on ---------------------------


class TestSloChaosFingerprints:
    """SLO tracking observes the workload without touching its RNG or
    clocks, so every pinned fingerprint must be bit-identical with it on."""

    def test_serial_failover_fingerprint_with_slo_on(self):
        from repro.faults import ChaosConfig, ChaosRunner
        from repro.faults.__main__ import build_failover_plan
        from tests.test_exec import FAILOVER_200_FINGERPRINT

        report = ChaosRunner(
            build_failover_plan(0, 200, 8),
            ChaosConfig(steps=200, slo=SloConfig(enabled=True)),
        ).run()
        assert report.ok
        assert report.fingerprint() == FAILOVER_200_FINGERPRINT

    def test_governed_noisy_neighbor_fingerprint_with_slo_on(self):
        from repro.faults import ChaosConfig, ChaosRunner
        from repro.faults.__main__ import FLOOD_TENANT, build_noisy_neighbor_plan
        from tests.test_exec import NOISY_200_FINGERPRINT

        report = ChaosRunner(
            build_noisy_neighbor_plan(0, 200, 8),
            ChaosConfig(
                steps=200,
                flood_tenant=FLOOD_TENANT,
                flood_factor=20,
                tenancy=TenancyConfig.strict(),
                slo=SloConfig(enabled=True),
            ),
        ).run()
        assert report.ok
        assert report.fingerprint() == NOISY_200_FINGERPRINT


# -- CLI -----------------------------------------------------------------------


class TestSloCli:
    def test_slo_view_prints_objectives_and_hot_keys(self, capsys):
        from repro.obsv.__main__ import main

        assert main(["--slo", "--governed", "--writes", "200"]) == 0
        out = capsys.readouterr().out
        assert "== slo objectives ==" in out
        assert "write-availability" in out
        assert "== heavy hitters ==" in out

    def test_bundle_from_slo_demo_validates(self, tmp_path, capsys):
        from repro.obsv.__main__ import main

        path = tmp_path / "bundle.json"
        assert main(
            ["--slo", "--governed", "--writes", "200", "--bundle", str(path)]
        ) == 0
        bundle = json.loads(path.read_text())
        assert bundle["slo"]["enabled"] is True


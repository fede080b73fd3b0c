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
from types import SimpleNamespace

import pytest

from repro.cluster import ClusterTopology
from repro.errors import ConfigurationError, TenantThrottledError
from repro.esdb import ESDB, EsdbConfig
from repro.obsv import cat_hotkeys, cat_slo, render_dashboard, snapshot
from repro.obsv.snapshot import read_hotkey_table
from repro.slo import (
    OBJECTIVES,
    HeavyHitterProfiler,
    SloEngine,
    SpaceSavingSketch,
    rank_top_k,
)
from repro.slo.config import (
    BURN_THRESHOLD,
    DECAY_WINDOW_SECONDS,
    MAX_TRACKED_TENANTS,
    SKETCH_CAPACITY,
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


# -- objectives ----------------------------------------------------------------


class TestObjectives:
    def test_latency_and_availability_for_each_operation(self):
        kinds = {(o.op, o.kind) for o in OBJECTIVES}
        assert kinds == {
            ("write", "latency"), ("query", "latency"),
            ("write", "error_rate"), ("query", "error_rate"),
        }
        assert len({o.name for o in OBJECTIVES}) == len(OBJECTIVES)
        for objective in OBJECTIVES:
            assert objective.budget == pytest.approx(1.0 - objective.objective)

    def test_off_by_default(self):
        assert EsdbConfig().slo is False


# -- SloEngine -----------------------------------------------------------------


def status_of(engine: SloEngine, name: str) -> dict:
    return next(row for row in engine.snapshot()["objectives"] if row["slo"] == name)


class TestSloEngine:
    def test_latency_classification_with_synthetic_elapsed(self):
        engine = SloEngine()
        engine.record("write", 0.005, 1.0)  # good: under the 10 ms threshold
        engine.record("write", 0.020, 1.0)  # bad: over it
        engine.record("write", 0.0, 1.0, error=True)  # no latency sample
        engine.record("query", 0.5, 1.0)  # another op's objective
        row = status_of(engine, "write-latency")
        assert (row["good"], row["bad"]) == (1, 1)

    def test_budget_math(self):
        engine = SloEngine()
        for i in range(90):
            engine.record("write", 0.0, 1.0)
        for i in range(10):
            engine.record("write", 0.0, 1.0, error=True)
        row = status_of(engine, "write-availability")
        # bad fraction 0.1 against a 0.01 budget: 10x consumed.
        assert row["budget_remaining_pct"] == pytest.approx(100 * (1 - 10.0))

    def test_burn_fires_then_recovers(self):
        engine = SloEngine()
        # Steady errors: 1 bad in 10 per second for 6 seconds -> burn 10x.
        now = 0.0
        for second in range(6):
            for i in range(9):
                engine.record("write", 0.0, now + second)
            engine.record("write", 0.0, now + second, error=True)
        fired = engine.evaluate(6.0)
        assert [alert.kind for alert in fired] == ["slo_burn"]
        assert fired[0].slo == "write-availability"
        assert fired[0].fast_burn >= BURN_THRESHOLD
        assert fired[0].slow_burn >= BURN_THRESHOLD
        # No double-fire while still burning.
        for i in range(10):
            engine.record("write", 0.0, 7.0, error=True)
        assert engine.evaluate(7.0) == []
        # Clean traffic pushes the fast window under the threshold.
        for second in range(8, 16):
            for i in range(50):
                engine.record("write", 0.0, float(second))
        fired = engine.evaluate(15.0)
        assert [alert.kind for alert in fired] == ["slo_recovered"]
        row = status_of(engine, "write-availability")
        assert row["state"] == "ok"
        assert row["burn_alerts"] == 1

    def test_burn_needs_both_windows(self):
        """Errors the slow window still sees but the fast window no longer
        does fire nothing; the same errors inside the fast window but
        diluted over the slow one fire nothing either."""
        engine = SloEngine()
        for i in range(10):
            engine.record("write", 0.0, 20.0, error=True)
        for second in range(21, 31):
            engine.record("write", 0.0, float(second))
        assert engine.evaluate(30.0) == []  # fast window: 5 good, 0 bad
        diluted = SloEngine()
        for second in range(0, 30):
            for i in range(100):
                diluted.record("write", 0.0, float(second))
        for i in range(15):
            diluted.record("write", 0.0, 29.0, error=True)
        # Fast: 15 bad of 515 (burn 2.9); slow: 15 of 3015 (burn 0.5).
        assert diluted.evaluate(29.0) == []
        row = status_of(diluted, "write-availability")
        assert row["fast_burn"] >= BURN_THRESHOLD > row["slow_burn"]

    def test_evaluations_follow_the_logical_second(self):
        engine = SloEngine()
        for tick in range(40):
            engine.maybe_evaluate(tick * 0.25)
        assert engine.evaluations == 10  # at 0, 1, ..., 9

    def test_no_fire_without_traffic_in_fast_window(self):
        engine = SloEngine()
        for i in range(10):
            engine.record("write", 0.0, 0.0, error=True)
        # Way past the fast window: burn in the fast window is empty.
        assert engine.evaluate(100.0) == []

    def test_evaluation_schedule_anchors_on_first_call(self):
        engine = SloEngine()
        assert engine.due(0.0)
        engine.evaluate(0.0)
        assert not engine.due(0.5)
        assert engine.maybe_evaluate(0.5) == []
        assert engine.evaluations == 1
        assert engine.due(1.0)

    def test_gauges_exported_on_evaluate(self):
        metrics = MetricsRegistry()
        engine = SloEngine(metrics=metrics)
        for i in range(4):
            engine.record("write", 0.0, 1.0, error=bool(i % 2))
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
        engine = SloEngine()
        for i in range(10):
            engine.record("write", 0.0, 0.0, error=True)
        # 40 logical seconds later the slow window no longer sees them.
        engine.record("write", 0.0, 40.0)
        engine.evaluate(40.0)
        row = status_of(engine, "write-availability")
        assert row["fast_burn"] == 0.0
        assert row["slow_burn"] == 0.0

    def test_snapshot_and_rendered_dashboard(self):
        engine = SloEngine()
        engine.record("write", 0.0, 1.0)
        engine.evaluate(1.0)
        dump = engine.snapshot()
        assert dump["enabled"] is True
        assert dump["evaluations"] == 1
        assert [row["slo"] for row in dump["objectives"]] == [
            o.name for o in OBJECTIVES
        ]
        db = make_db(slo=True)
        db.write(make_log(0, "t", 1.0))
        lines = render_dashboard(snapshot(db)).splitlines()
        start = lines.index("-- slo --")
        assert lines[start + 1].split()[:3] == ["slo", "op", "kind"]
        rows = [line.split()[:3] for line in lines[start + 2 : start + 2 + len(OBJECTIVES)]]
        assert rows == [[o.name, o.op, o.kind] for o in OBJECTIVES]
        assert rows[0] == ["write-latency", "write", "latency"]


# -- HeavyHitterProfiler -------------------------------------------------------


class TestHeavyHitterProfiler:
    def test_tracks_keys_per_shard_and_tenant(self):
        profiler = HeavyHitterProfiler()
        for i in range(20):
            profiler.record_write("whale", i % 2, f"key-{i % 3}")
        assert profiler.hot_keys_for_tenant("whale")
        assert profiler.hot_keys_for_shard(0)
        assert profiler.hot_keys_for_shard(1)
        assert profiler.hot_keys_for_shard(9) == []
        assert profiler.hot_keys_for_tenant("nobody") == []

    def test_query_dimension(self):
        profiler = HeavyHitterProfiler()
        profiler.record_query("t1", "fp-1", ["tenant_id=whale", "status=1"])
        profiler.record_query("t1", "fp-1", ["tenant_id=whale"])
        assert profiler.hot_queries_for_tenant("t1")[0][0] == "fp-1"
        top_terms = [key for key, _, _ in profiler.filter_terms.top()]
        assert top_terms[0] == "tenant_id=whale"

    def test_bounded_over_zipf_run(self):
        """10k skewed writes from 76 tenants (the quadratic residues mod
        151): every sketch stays O(capacity) and the tenant maps stay
        capped."""
        profiler = HeavyHitterProfiler()
        for i in range(10_000):
            tenant = f"tenant-{(i * i) % 151}"
            profiler.record_write(tenant, i % 8, f"doc-{i}")
        assert len(profiler.routing_keys) <= SKETCH_CAPACITY
        for sketch in profiler.shard_keys.values():
            assert len(sketch) <= SKETCH_CAPACITY
        assert len(profiler.tenant_keys) == MAX_TRACKED_TENANTS
        assert profiler.dropped_tenants > 0

    def test_tenant_cap_never_grows(self):
        profiler = HeavyHitterProfiler()
        names = [f"t{i:03d}" for i in range(MAX_TRACKED_TENANTS + 2)]
        for name in names + names[:1]:
            profiler.record_write(name, 0, "k")
        assert sorted(profiler.tenant_keys) == names[:MAX_TRACKED_TENANTS]
        assert profiler.dropped_tenants == 2

    def test_facade_decays_the_sketches_every_minute(self):
        db = make_db(slo=True)
        for i in range(130):
            db.write(make_log(i, "whale", created=float(i)))
        assert db.hotkeys.decays == 2  # at 60 and 120
        # The 61 offers up to t=60 halve, then with the 60 after them
        # halve again at t=120; the last 9 count whole.
        assert db.hotkeys.routing_keys.offered == (61 / 2 + 60) / 2 + 9

    def test_decay_rolls_on_logical_window(self):
        profiler = HeavyHitterProfiler()
        profiler.record_write("t", 0, "old-key")
        assert not profiler.maybe_roll(0.0)  # anchors the schedule
        assert not profiler.maybe_roll(DECAY_WINDOW_SECONDS / 2)
        assert profiler.maybe_roll(DECAY_WINDOW_SECONDS)
        assert profiler.decays == 1
        # Counts aged: a single offer decays to 0.5 and is dropped.
        assert profiler.routing_keys.estimate("old-key") is None

    def test_table_rows_deterministic_and_ordered(self):
        def build():
            profiler = HeavyHitterProfiler()
            for i in range(30):
                profiler.record_write(f"t{i % 3}", i % 2, f"k{i % 5}")
            profiler.record_query("t0", "fp", ["status=1"])
            # The table is read off the profiler's snapshot.
            table = read_hotkey_table(SimpleNamespace(hotkeys=profiler))
            return [row for row in table if row["rank"] <= 3]

        rows = build()
        assert rows == build()
        dimensions = [row["dimension"] for row in rows]
        assert dimensions == sorted(
            dimensions,
            key=["routing_key", "filter_term", "query_fingerprint"].index,
        )
        # Global scope leads each dimension; ranks restart from 1.
        first = rows[0]
        assert (first["dimension"], first["scope"], first["subject"], first["rank"]) == (
            "routing_key", "global", "-", 1,
        )
        for row in rows:
            assert row["count"] >= 0 and row["error"] >= 0

    def test_snapshot_shape(self):
        profiler = HeavyHitterProfiler()
        profiler.record_write("t", 3, "k")
        dump = profiler.snapshot()
        assert dump["enabled"] is True
        assert dump["sketch_capacity"] == SKETCH_CAPACITY
        assert "3" in dump["shards"]
        assert "t" in dump["tenants"]
        json.dumps(dump)  # JSON-ready


# -- facade integration --------------------------------------------------------


GOVERNED = TenancyConfig(
    enabled=True, write_rate=5.0, write_burst=10.0, queue_capacity=4
)


def governed_slo_db(**extras) -> ESDB:
    return make_db(
        tenancy=GOVERNED, slo=True, **extras
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
    def test_profiler_exists_exactly_when_slo_does(self):
        on, off = make_db(slo=True), make_db(slo=False)
        assert on.slo is not None and on.hotkeys is not None
        assert off.slo is None and off.hotkeys is None
        on.write(make_log(0, "t", 0.0))
        assert on.hotkeys.routing_keys.offered == 1

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
        # Write latency classifies wall time and may burn too; the
        # whale's throttles burn write availability whatever the clock.
        burn_events = db.events.query(kind="slo_burn")
        availability = [
            event for event in burn_events
            if event.detail["slo"] == "write-availability"
        ]
        assert availability
        detail = availability[0].detail
        assert detail["fast_burn"] >= BURN_THRESHOLD
        assert "budget_remaining_pct" in detail

    def test_same_seed_same_firing_ticks(self):
        # Latency objectives classify real elapsed wall time, which varies
        # run to run; determinism is pinned on the error-rate objectives
        # (driven by deterministic throttle decisions) and the sketches.
        def run():
            db = governed_slo_db()
            drive_whale(db)
            ticks = [
                (alert.kind, alert.slo, alert.time)
                for alert in db.slo.alerts
                if alert.slo.endswith("-availability")
            ]
            rows = cat_hotkeys(db).to_dicts()
            return ticks, rows

        first, second = run(), run()
        assert first[0] and first[0] == second[0]
        assert first[1] == second[1]

    def test_query_side_records_fingerprints_and_terms(self):
        db = make_db(slo=True)
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
        db = make_db(slo=True)
        for i in range(220):
            tenant = "whale" if i % 10 < 8 else f"t{i % 5}"
            db.write(make_log(i, tenant, created=i * 0.1))
        alerts = [
            alert for alert in list(db.obsv.alerts)[-50:]
            if alert.kind == "hot_tenant" and alert.subject == "whale"
        ]
        assert alerts, "expected a hot-tenant alert from the whale stream"
        assert "hot_keys" in alerts[0].measurement
        assert alerts[0].measurement["hot_keys"]

    def test_slo_metrics_reach_the_metrics_snapshot(self):
        db = governed_slo_db()
        drive_whale(db, 120)
        gauges = {entry["name"] for entry in db.telemetry.metrics.snapshot()["gauges"]}
        assert {
            "slo_budget_remaining_pct", "slo_burn_rate", "slo_hotkey_concentration_pct"
        } <= gauges

    def test_derived_series_and_dashboard_sections(self):
        from repro.obsv import render_dashboard

        db = governed_slo_db()
        drive_whale(db)
        store = db.timeseries
        assert store.get("slo.budget_min_pct") is not None
        assert store.get("slo.burn_fast_max") is not None
        page = render_dashboard(snapshot(db))
        assert "-- slo --" in page
        assert "-- heavy hitters --" in page
        assert "write-availability" in page

    def test_snapshot_sections_present_only_when_enabled(self):
        enabled = governed_slo_db()
        drive_whale(enabled, 80)
        cluster = snapshot(enabled)["cluster"]
        assert cluster["slo"]["enabled"] is True
        assert cluster["hotkeys"]["enabled"] is True
        disabled = make_db()
        disabled.write(make_log(0, "t", 0.0))
        off = snapshot(disabled)["cluster"]
        assert "slo" not in off and "hotkeys" not in off

    def test_rendered_dashboard_sections_stable(self):
        db = governed_slo_db()
        drive_whale(db)
        page = render_dashboard(snapshot(db))
        assert "-- slo --\n" + cat_slo(db).render() in page
        assert "-- heavy hitters --\n" + cat_hotkeys(db, k=3).render() in page
        assert "-- tenancy governance --" in page
        assert page == render_dashboard(snapshot(db))

    def test_malformed_documents_spend_no_availability_budget(self):
        """A document rejected for a bad field is the caller's error,
        whichever field it is: the routing pass (bad creation time) and
        the engine (bad quantity) both leave the availability budget
        alone."""
        db = make_db(slo=True)
        good = {"tenant_id": 1, "transaction_id": 1, "created_time": 1.0}
        result = db.bulk_write([
            good,
            {**good, "transaction_id": 2, "created_time": "abc"},
            {**good, "transaction_id": 3, "quantity": "abc"},
        ])
        errors = [type(item.error).__name__ for item in result.items[1:]]
        assert errors == ["InvalidDocumentError", "InvalidDocumentError"]
        row = status_of(db.slo, "write-availability")
        assert (row["good"], row["bad"]) == (1, 0)

    def test_throttled_write_spends_availability_budget(self):
        db = make_db(
            slo=True,
            tenancy=TenancyConfig(
                enabled=True, write_rate=1.0, write_burst=1.0, queue_capacity=1
            ),
        )
        result = db.bulk_write(
            [make_log(i, "whale", created=0.0) for i in range(4)]
        )
        shed = sum(
            isinstance(item.error, TenantThrottledError) for item in result.items
        )
        assert shed > 0
        row = status_of(db.slo, "write-availability")
        assert (row["good"], row["bad"]) == (len(result.items) - shed, shed)

    def test_overhead_is_one_branch_when_off(self):
        db = make_db()
        assert db.config.slo is False
        assert "-- slo --" not in render_dashboard(snapshot(db))


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


# -- diagnostics bundle v3 -----------------------------------------------------


class TestBundleV3:
    def test_round_trip_with_slo_enabled(self):
        from repro.obsv import BUNDLE_SCHEMA_VERSION, validate_bundle

        db = governed_slo_db()
        drive_whale(db)
        bundle = snapshot(db)
        assert bundle["schema_version"] == BUNDLE_SCHEMA_VERSION == 3
        assert bundle["tracing"] == {
            "enabled": True, "traces_started": db.trace_ids.issued,
        }
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
        bundle = snapshot(db)
        assert validate_bundle(bundle) == []
        assert bundle["slo"] == {
            "enabled": False, "evaluations": 0, "objectives": [], "alerts": [],
        }
        assert bundle["hotkeys"]["enabled"] is False

    def test_unknown_schema_version_rejected_clearly(self):
        from repro.obsv import BUNDLE_SCHEMA_VERSION, validate_bundle

        db = make_db()
        bundle = snapshot(db)
        bundle["schema_version"] = BUNDLE_SCHEMA_VERSION + 1
        problems = validate_bundle(bundle)
        assert len(problems) == 1
        assert "unknown schema_version" in problems[0]
        assert str(BUNDLE_SCHEMA_VERSION) in problems[0]

    def test_v2_bundle_rejected_with_the_unknown_version_error(self):
        from repro.obsv import validate_bundle

        db = make_db()
        db.write(make_log(0, "t", 0.0))
        bundle = snapshot(db)
        bundle["schema_version"] = 2
        bundle["tracing"].update(sampler="always", ratio=1.0, slow_tail_seconds=0.005)
        assert validate_bundle(bundle) == [
            "unknown schema_version 2: this validator understands version 3 only"
        ]

    def test_lint_catches_malformed_slo_and_hotkeys(self):
        from repro.obsv import validate_bundle

        db = governed_slo_db()
        drive_whale(db, 120)
        bundle = json.loads(json.dumps(snapshot(db)))
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
            ChaosConfig(steps=200, slo=True),
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
                slo=True,
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
        assert out.startswith("== esdb dashboard :: ")
        assert "\n-- slo --\n" in out
        assert "write-availability" in out
        assert "\n-- heavy hitters --\n" in out

    def test_bundle_from_slo_demo_validates(self, tmp_path, capsys):
        from repro.obsv.__main__ import main

        path = tmp_path / "bundle.json"
        assert main(
            ["--slo", "--governed", "--writes", "200", "--bundle", str(path)]
        ) == 0
        bundle = json.loads(path.read_text())
        assert bundle["slo"]["enabled"] is True


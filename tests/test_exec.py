"""Tests for batched execution (repro.exec) and the facade's one
execution path.

The contracts under test: ``bulk_write`` reports every document's
outcome in submission order and answers queries as a loop over
``write`` does; every query takes one path, whose result-cache hits
answer and account as their misses did; the chaos fingerprints and trace
sequences stay pinned; and user threads sharing one instance lose
nothing.
"""

from __future__ import annotations

import threading

import pytest

from repro.cluster import ClusterTopology
from repro.esdb import ESDB, EsdbConfig
from repro.exec import BulkItemResult, BulkResult
from repro.obsv import cat_exec
from repro.workload.generator import TransactionLogGenerator, WorkloadConfig
from tests.conftest import make_log

TOPOLOGY = ClusterTopology(num_nodes=2, num_shards=8, replicas_per_shard=0)


def make_db(**extras) -> ESDB:
    return ESDB(
        EsdbConfig(topology=TOPOLOGY, consensus_interval=1.0, **extras)
    )


def zipf_docs(count: int, seed: int = 0) -> list[dict]:
    generator = TransactionLogGenerator(
        WorkloadConfig(num_tenants=100, seed=seed)
    )
    return [generator.generate(created_time=i * 0.02) for i in range(count)]


QUERY_SET = (
    "SELECT * FROM transaction_logs WHERE quantity >= 3",
    "SELECT COUNT(*) FROM transaction_logs WHERE status = 1",
    "SELECT status, COUNT(*) FROM transaction_logs GROUP BY status",
    "SELECT * FROM transaction_logs WHERE amount <= 500 "
    "ORDER BY created_time DESC LIMIT 25",
)


# -- bulk writes ---------------------------------------------------------------


class TestBulkWrite:
    def test_bulk_result_positions_and_shards(self):
        db = make_db()
        result = db.bulk_write([make_log(i, created=float(i)) for i in range(20)])
        assert isinstance(result, BulkResult)
        assert result.ok and result.applied == 20
        assert [item.position for item in result.items] == list(range(20))
        assert all(item.shard_id is not None for item in result.items)
        for item in result.items:
            assert db.engines[item.shard_id].contains(item.doc_id)

    def test_per_document_error_reporting(self):
        db = make_db()
        docs = [make_log(1, created=1.0), {"broken": True}, make_log(2, created=2.0)]
        result = db.bulk_write(docs)
        assert not result.ok
        assert result.applied == 2
        assert [item.ok for item in result.items] == [True, False, True]
        assert isinstance(result.items[1].error, Exception)
        with pytest.raises(Exception):
            result.raise_first()

    def test_stop_on_error_never_admits_later_documents(self):
        db = make_db()
        docs = [make_log(1, created=1.0), {"broken": True}, make_log(2, created=2.0)]
        result = db.bulk_write(docs, stop_on_error=True)
        assert [item.ok for item in result.items] == [True, False, False]
        # Documents after the failure share the stopping error and were
        # never applied anywhere.
        assert result.items[2].error is result.items[1].error
        db.refresh()
        assert db.doc_count() == 1

    def test_stop_on_error_raise_first_keeps_earlier_documents(self):
        db = make_db()
        result = db.bulk_write(
            [make_log(1, created=1.0), {"broken": True}], stop_on_error=True
        )
        with pytest.raises(Exception):
            result.raise_first()
        db.refresh()
        assert db.doc_count() == 1  # the earlier document stays written

    def test_bulk_item_result_defaults(self):
        item = BulkItemResult(position=0)
        assert item.ok and item.error is None and item.shard_id is None

    def test_bulk_write_equals_a_loop_over_write(self):
        docs = zipf_docs(400, seed=11)
        looped, bulk = make_db(), make_db()
        shard_ids = [looped.write(doc) for doc in docs]
        result = bulk.bulk_write(docs)
        assert result.ok
        assert [item.shard_id for item in result.items] == shard_ids
        for item in result.items:
            assert bulk.engines[item.shard_id].contains(item.doc_id)
        looped.refresh()
        bulk.refresh()
        for sql in QUERY_SET:
            expected = looped.execute_sql(sql)
            actual = bulk.execute_sql(sql)
            assert actual.rows == expected.rows
            assert actual.total_hits == expected.total_hits


# -- the one query path --------------------------------------------------------


#: One statement of each shape the planner distinguishes.
STATEMENT_SHAPES = {
    "count": "SELECT COUNT(*) FROM transaction_logs WHERE status = 1",
    "group-by": "SELECT status, COUNT(*) FROM transaction_logs GROUP BY status",
    "avg": "SELECT status, COUNT(*), AVG(amount) FROM transaction_logs "
    "GROUP BY status",
    "order-limit": "SELECT * FROM transaction_logs WHERE amount <= 500 "
    "ORDER BY created_time DESC LIMIT 25",
    "limit": "SELECT * FROM transaction_logs WHERE quantity >= 3 LIMIT 5",
    "in-list": "SELECT * FROM transaction_logs WHERE quantity IN (1, 2)",
    "between": "SELECT * FROM transaction_logs WHERE created_time BETWEEN 0 AND 1",
    "conjunction": "SELECT * FROM transaction_logs "
    "WHERE quantity >= 3 AND status = 1",
    "tenant": "SELECT * FROM transaction_logs WHERE tenant_id = 1",
}

#: Statements over :func:`tenant_docs`, each with the tenant a query of
#: it is charged to: the one every disjunct names, else None.
TENANT_SHAPES = {
    "count": ("SELECT COUNT(*) FROM t WHERE tenant_id = 1 AND status = 1", 1),
    "group-by": ("SELECT status, COUNT(*) FROM t WHERE tenant_id = 1 GROUP BY status", 1),
    "avg": (
        "SELECT status, COUNT(*), AVG(amount) FROM t WHERE tenant_id = 1 GROUP BY status",
        1,
    ),
    "order-limit": (
        "SELECT * FROM t WHERE tenant_id = 1 AND amount <= 150 "
        "ORDER BY created_time DESC LIMIT 2",
        1,
    ),
    "limit": ("SELECT * FROM t WHERE tenant_id = 2 AND quantity >= 2 LIMIT 2", 2),
    "in-list": ("SELECT * FROM t WHERE tenant_id = 2 AND quantity IN (1, 2)", 2),
    "time-window": ("SELECT * FROM t WHERE tenant_id = 3 AND created_time BETWEEN 0 AND 12", 3),
    "tenant-in-both-disjuncts": (
        "SELECT * FROM t WHERE (tenant_id = 3 AND status = 0) "
        "OR (tenant_id = 3 AND status = 2)",
        3,
    ),
    "two-tenants": ("SELECT * FROM t WHERE tenant_id = 1 OR tenant_id = 2", None),
    "tenant-in-list": ("SELECT * FROM t WHERE tenant_id IN (1, 3)", None),
    "cross-tenant": ("SELECT * FROM t WHERE status = 1", None),
}


def tenant_docs() -> list[dict]:
    """24 documents, 8 for each of the tenants 1, 2 and 3."""
    return [
        make_log(
            i, tenant=1 + i % 3, created=float(i), status=i // 3 % 3,
            amount=float(i * 10), quantity=i % 5,
        )
        for i in range(24)
    ]


def loaded_db(**extras) -> ESDB:
    db = make_db(**extras)
    db.bulk_write(zipf_docs(150, seed=6))
    db.refresh()
    return db


def tenant_db(**extras) -> ESDB:
    db = make_db(**extras)
    db.bulk_write(tenant_docs())
    db.refresh()
    return db


def tap(fn, calls: list):
    """*fn*, recording each call's positional arguments in *calls*."""

    def tapped(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    return tapped


class TestOneQueryPath:
    """``execute_sql`` and ``explain_analyze`` share one pipeline: probe
    the result cache; on a miss prepare, read the routing bounds once, fan
    out and put an entry that carries the tenant, ``ATTR`` keys and terms
    a hit accounts for."""

    @pytest.mark.parametrize("sql", STATEMENT_SHAPES.values(), ids=STATEMENT_SHAPES)
    def test_each_shape_repeats_from_the_result_cache(self, sql):
        db = loaded_db()
        uncached = loaded_db(cache=False)
        first = db.execute_sql(sql)
        assert first.total_hits > 0
        subqueries = db.telemetry.metrics.total("esdb_subqueries_total")
        second = db.execute_sql(sql)
        assert db.result_cache.stats.hits == 1
        assert db.telemetry.metrics.total("esdb_subqueries_total") == subqueries
        assert db.telemetry.metrics.total("esdb_queries_total") == 2
        expected = uncached.execute_sql(sql)
        for result in (first, second):
            assert result.rows == expected.rows
            assert result.total_hits == expected.total_hits
            assert result.subqueries == expected.subqueries

    @pytest.mark.parametrize("sql", STATEMENT_SHAPES.values(), ids=STATEMENT_SHAPES)
    def test_explain_analyze_shares_the_cache_entry_of_execute_sql(self, sql):
        db = loaded_db()
        cold = db.explain_analyze(sql)
        assert cold.find("cache.hit") is None
        result = db.execute_sql(sql)
        assert db.result_cache.stats.hits == 1
        assert (len(result.rows), result.total_hits) == (
            cold.tags["rows"], cold.tags["total_hits"]
        )
        warm = db.explain_analyze(sql)
        assert warm.find("cache.hit") is not None
        assert not [span for span in warm.walk() if span.name.startswith("query.shard[")]
        assert warm.tags["rows"] == cold.tags["rows"]
        assert db.result_cache.stats.hits == 2

    @pytest.mark.parametrize(
        "sql, tenant", TENANT_SHAPES.values(), ids=TENANT_SHAPES
    )
    def test_hit_is_charged_to_the_tenant_its_miss_read(self, sql, tenant):
        db = tenant_db(slo=True)
        records = []
        db.hotkeys.record_query = tap(db.hotkeys.record_query, records)
        first = db.execute_sql(sql)
        assert first.total_hits > 0
        second = db.execute_sql(sql)
        assert db.result_cache.stats.hits == 1
        assert second.rows == first.rows
        assert [args[0] for args in records] == [tenant] * 2

    def test_hit_does_not_prepare_the_statement(self, monkeypatch):
        db = loaded_db()
        sql = STATEMENT_SHAPES["conjunction"]
        expected = db.execute_sql(sql)
        monkeypatch.setattr(
            db.coordinator, "prepare", lambda *args: pytest.fail("a hit prepared its statement")
        )
        assert db.execute_sql(sql).rows == expected.rows

    def test_miss_reads_the_routing_bounds_once(self, monkeypatch):
        import repro.query.coordinator

        calls = []
        monkeypatch.setattr(
            repro.query.coordinator, "routing_bounds",
            tap(repro.query.coordinator.routing_bounds, calls),
        )
        db = tenant_db()
        sql, _ = TENANT_SHAPES["tenant-in-both-disjuncts"]
        db.execute_sql(sql)
        assert len(calls) == 1
        db.execute_sql(sql)
        assert len(calls) == 1  # the hit reads its entry instead

    def test_repeated_statement_fans_out_once(self):
        db = loaded_db()
        sql = STATEMENT_SHAPES["conjunction"]
        results = [db.execute_sql(sql) for _ in range(8)]
        metrics = db.telemetry.metrics
        assert metrics.total("esdb_queries_total") == 8
        assert metrics.total("esdb_subqueries_total") == TOPOLOGY.num_shards
        assert db.result_cache.stats.hits == 7
        assert all(result.rows == results[0].rows for result in results)

    def test_unparseable_statement_raises_and_caches_nothing(self):
        from repro.errors import QueryError

        db = loaded_db()
        bad = "SELEC * FROM transaction_logs"
        for _ in range(2):
            with pytest.raises(QueryError):
                db.execute_sql(bad)
        assert len(db.result_cache) == 0
        assert db.result_cache.stats.hits == 0
        assert db.telemetry.metrics.total("esdb_queries_total") == 0

    def test_hits_count_toward_subattribute_suggestions(self):
        db = make_db()
        db.write(make_log(1, tenant=1, created=0.0, attributes="hot:v;cold:v"))
        db.refresh()
        for _ in range(3):
            db.execute_sql("SELECT * FROM t WHERE tenant_id = 1 AND ATTR(hot) = 'v'")
        for value in ("v", "w"):
            db.execute_sql(f"SELECT * FROM t WHERE tenant_id = 1 AND ATTR(cold) = '{value}'")
        # Two of hot's three queries were hits; counted, hot leads 3 to 2.
        assert db.result_cache.stats.hits == 2
        assert db.suggest_subattribute_indexes(k=1) == frozenset({"hot"})

    def test_governed_hit_is_admitted_and_charged_to_its_tenant(self):
        from repro.tenancy import TenancyConfig

        db = tenant_db(tenancy=TenancyConfig(enabled=True))
        admitted, charged = [], []
        governor = db.governor
        governor.admit_query = tap(governor.admit_query, admitted)
        charge_query = governor.charge_query

        def charge(tenant, now, result_bytes=0, scanned=0):
            charged.append((tenant, scanned))
            charge_query(tenant, now, result_bytes=result_bytes, scanned=scanned)

        governor.charge_query = charge
        sql, tenant = TENANT_SHAPES["count"]
        for _ in range(2):
            db.execute_sql(sql)
        assert db.result_cache.stats.hits == 1
        assert [args[0] for args in admitted] == [tenant, tenant]
        # The miss scanned its matches; the hit scanned nothing.
        assert charged[0][0] == tenant and charged[0][1] > 0
        assert charged[1] == (tenant, 0)


class TestResultCacheEviction:
    """A full result cache evicts its stalest entry, never everything, and
    an evicted statement's next run is a miss charged to its tenant."""

    STATEMENT = "SELECT COUNT(*) FROM t WHERE tenant_id = {}"

    def two_entry_db(self, **extras) -> ESDB:
        from repro.cache import CoordinatorResultCache

        db = tenant_db(**extras)
        db.execute_sql(self.STATEMENT.format(1))
        cost = db.result_cache.stats.bytes
        # Only a repeat evicts: statement 3, which fills the cache below,
        # is seen once here first.
        db.execute_sql(self.STATEMENT.format(3))
        # Room for two entries of equal cost (each tenant counts 8
        # documents on one shard), not for three.
        db.coordinator.result_cache = CoordinatorResultCache(
            2 * cost + cost // 2, metrics=db.telemetry.metrics
        )
        return db

    def test_full_cache_evicts_the_stalest_entry_only(self):
        db = self.two_entry_db()
        for tenant in (1, 2, 1, 3):  # the hit on 1 makes 2 the stalest
            db.execute_sql(self.STATEMENT.format(tenant))
        assert db.result_cache.stats.hits == 1
        assert db.result_cache.stats.evictions == 1
        assert len(db.result_cache) == 2
        for tenant in (1, 3):
            db.execute_sql(self.STATEMENT.format(tenant))
        assert db.result_cache.stats.hits == 3

    def test_evicted_statement_is_charged_to_its_tenant_again(self):
        db = self.two_entry_db(slo=True)
        for tenant in (1, 2, 3):
            db.execute_sql(self.STATEMENT.format(tenant))
        records = []
        db.hotkeys.record_query = tap(db.hotkeys.record_query, records)
        result = db.execute_sql(self.STATEMENT.format(1))
        assert db.result_cache.stats.hits == 0
        assert result.scalar() == 8
        assert [args[0] for args in records] == [1]


# -- observability -------------------------------------------------------------


class TestExecObservability:
    def test_cat_exec_empty_on_untouched_instance(self):
        db = make_db()
        table = cat_exec(db)
        assert len(table) == 0
        assert table.columns == ("stat", "detail", "value")

    def test_cat_exec_reports_bulk_counters(self):
        db = make_db()
        db.bulk_write(zipf_docs(60, seed=3))
        db.refresh()
        db.execute_sql("SELECT * FROM transaction_logs WHERE quantity >= 3")
        assert cat_exec(db).rows == [("bulk", "batches", 1), ("bulk", "docs", 60)]

    def test_exec_derived_series_registered(self):
        db = make_db()
        db.bulk_write(zipf_docs(60, seed=3))
        db.advance_clock(db.now + 10.0)
        db.timeseries.sample(db.now)
        names = {series.name for series in db.timeseries.all_series()}
        assert "exec.bulk_docs_per_s" in names


# -- write client integration --------------------------------------------------


class TestWriteClientForEsdb:
    def test_for_esdb_dispatches_through_bulk_write(self):
        from repro.client import WriteClient

        db = make_db()
        client = WriteClient.for_esdb(db)
        docs = zipf_docs(50, seed=12)
        for doc in docs:
            client.submit(doc)
        flushed = client.flush()
        assert flushed == len(
            {(d["tenant_id"], d["transaction_id"]) for d in docs}
        )
        assert db.telemetry.metrics.total("esdb_bulk_docs_total") == flushed

    def test_for_esdb_propagates_throttle(self):
        from repro.client import WriteClient
        from repro.errors import TenantThrottledError
        from repro.tenancy import TenancyConfig

        db = make_db(
            tenancy=TenancyConfig(
                enabled=True, write_rate=0.1, write_burst=1.0, queue_capacity=1
            )
        )
        client = WriteClient.for_esdb(db)
        for i in range(20):
            client.submit(make_log(i, tenant="flooder", created=0.01 * i))
        with pytest.raises(TenantThrottledError):
            client.flush()


# -- chaos fingerprint identity ------------------------------------------------


#: Pinned chaos fingerprints: every change must reproduce these
#: byte-for-byte forever.
FAILOVER_200_FINGERPRINT = (
    "seed=0 steps=200 acked=200 coalesced=0 redriven=11 faults=4/2 "
    "consensus=3/1 docs=[0:21,1:19,2:17,3:21,4:42,5:20,6:30,7:30] "
    "violations=0"
)
NOISY_200_FINGERPRINT = (
    "seed=0 steps=200 acked=517 coalesced=0 redriven=5 faults=1/1 "
    "consensus=4/0 docs=[0:21,1:19,2:17,3:21,4:359,5:20,6:30,7:30] "
    "violations=0 throttled=3683[tenant-flood:3683]"
)


class TestChaosFingerprintIdentity:
    def test_serial_failover_fingerprint_unchanged(self):
        from repro.faults import ChaosConfig, ChaosRunner
        from repro.faults.__main__ import build_failover_plan

        report = ChaosRunner(
            build_failover_plan(0, 200, 8), ChaosConfig(steps=200)
        ).run()
        assert report.ok
        assert report.fingerprint() == FAILOVER_200_FINGERPRINT

    def test_governed_noisy_neighbor_fingerprint_unchanged(self):
        from repro.faults import ChaosConfig, ChaosRunner
        from repro.faults.__main__ import FLOOD_TENANT, build_noisy_neighbor_plan
        from repro.tenancy import TenancyConfig

        report = ChaosRunner(
            build_noisy_neighbor_plan(0, 200, 8),
            ChaosConfig(
                steps=200,
                flood_tenant=FLOOD_TENANT,
                flood_factor=20,
                tenancy=TenancyConfig.strict(),
            ),
        ).run()
        assert report.ok
        assert report.fingerprint() == NOISY_200_FINGERPRINT


# -- engine locking under concurrency ------------------------------------------


class TestEngineLockingStress:
    def test_concurrent_index_refresh_query_loses_nothing(self):
        """Fixed-seed stress: writers, a refresher and readers hammer one
        instance concurrently. No exception may escape any thread and
        every acked write must be durable and readable afterwards."""
        db = make_db()
        docs = zipf_docs(600, seed=13)
        errors: list[BaseException] = []
        acked: list[tuple[dict, int]] = []
        acked_lock = threading.Lock()
        stop = threading.Event()

        def writer(chunk: list[dict]) -> None:
            try:
                for doc in chunk:
                    shard_id = db.write(doc)
                    with acked_lock:
                        acked.append((doc, shard_id))
            except BaseException as exc:  # noqa: BLE001 - collected, re-raised
                errors.append(exc)

        def refresher() -> None:
            try:
                while not stop.is_set():
                    db.refresh()
                    for engine in db.engines.values():
                        engine.maybe_merge()
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        def reader() -> None:
            try:
                while not stop.is_set():
                    db.execute_sql(
                        "SELECT COUNT(*) FROM transaction_logs WHERE status = 1"
                    )
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        chunks = [docs[i::3] for i in range(3)]
        threads = [
            threading.Thread(target=writer, args=(chunk,)) for chunk in chunks
        ] + [
            threading.Thread(target=refresher),
            threading.Thread(target=reader),
        ]
        try:
            for thread in threads:
                thread.start()
            for thread in threads[:3]:
                thread.join(timeout=60)
        finally:
            stop.set()
            for thread in threads[3:]:
                thread.join(timeout=60)
        assert errors == []
        assert len(acked) == len(docs)
        db.refresh()
        for doc, shard_id in acked:
            assert db.engines[shard_id].contains(doc["transaction_id"])
        id_field = db.config.schema.id_field
        total = sum(
            engine.total_docs_including_buffer()
            for engine in db.engines.values()
        )
        assert total == len({doc[id_field] for doc in docs})


# -- tracer thread safety ------------------------------------------------------


class TestTracerThreadSafety:
    def test_worker_spans_never_parent_into_other_threads(self):
        """Regression: the span stack is thread-local, so a span opened on
        a worker thread must not splice itself under a span that another
        thread happens to have open."""
        from repro.telemetry import Telemetry

        telemetry = Telemetry()
        tracer = telemetry.tracer
        done = threading.Event()
        worker_spans = []

        def worker() -> None:
            with tracer.span("worker-op") as span:
                worker_spans.append(span)
            done.set()

        with tracer.span("main-op") as root:
            thread = threading.Thread(target=worker)
            thread.start()
            assert done.wait(timeout=30)
            thread.join(timeout=30)
        assert root.children == []
        assert worker_spans[0].name == "worker-op"
        finished_names = {span.name for span in tracer.finished}
        assert {"main-op", "worker-op"} <= finished_names


# -- tracing identity across backends and chaos --------------------------------


class TestChaosFingerprintTracingIdentity:
    """Tracing must be invisible to the chaos fingerprints: id allocation
    never touches the workload RNG or logical clocks, so every pinned
    fingerprint is bit-identical whether tracing is on (the instance
    default, covered by TestChaosFingerprintIdentity) or off."""

    def test_serial_failover_fingerprint_with_tracing_off(self):
        from repro.faults import ChaosConfig, ChaosRunner
        from repro.faults.__main__ import build_failover_plan
        from repro.telemetry import TraceConfig

        report = ChaosRunner(
            build_failover_plan(0, 200, 8),
            ChaosConfig(steps=200, tracing=TraceConfig.off()),
        ).run()
        assert report.ok
        assert report.fingerprint() == FAILOVER_200_FINGERPRINT

    def test_governed_noisy_neighbor_fingerprint_with_tracing_off(self):
        from repro.faults import ChaosConfig, ChaosRunner
        from repro.faults.__main__ import FLOOD_TENANT, build_noisy_neighbor_plan
        from repro.telemetry import TraceConfig
        from repro.tenancy import TenancyConfig

        report = ChaosRunner(
            build_noisy_neighbor_plan(0, 200, 8),
            ChaosConfig(
                steps=200,
                flood_tenant=FLOOD_TENANT,
                flood_factor=20,
                tenancy=TenancyConfig.strict(),
                tracing=TraceConfig.off(),
            ),
        ).run()
        assert report.ok
        assert report.fingerprint() == NOISY_200_FINGERPRINT


class TestTraceDeterminism:
    """Same seed ⇒ same trace ids and the same event sequence."""

    def _run_workload(self):
        from repro.obsv import ObsvConfig

        db = make_db(obsv=ObsvConfig(search_info_seconds=0.0))
        for doc in zipf_docs(60, seed=21):
            db.write(doc)
        db.refresh()
        for _ in range(3):
            db.execute_sql(
                "SELECT COUNT(*) FROM transaction_logs WHERE quantity >= 2"
            )
        db.rebalance()
        trace_ids = [
            span.trace_id for span in db.telemetry.tracer.recent_traces()
        ]
        events = [
            (e.kind, e.tenant, e.shard, e.trace_id) for e in db.events.query()
        ]
        return trace_ids, events, db.trace_ids.issued

    def test_two_runs_are_identical(self):
        assert self._run_workload() == self._run_workload()

    def test_fanout_query_span_tree_is_shard_ordered(self):
        db = make_db()
        db.bulk_write(zipf_docs(120, seed=2))
        db.refresh()
        trace = db.explain_analyze(
            "SELECT COUNT(*) FROM transaction_logs WHERE quantity >= 3"
        )
        shard_spans = [
            span.name for span in trace.walk() if span.name.startswith("query.shard[")
        ]
        assert shard_spans == [
            f"query.shard[{shard_id}]" for shard_id in range(TOPOLOGY.num_shards)
        ]

    def test_explain_analyze_tree_is_identical_across_runs(self):
        def tree_structure(span):
            return (
                span.name,
                span.trace_id,
                span.span_id,
                dict(span.tags),
                [tree_structure(child) for child in span.children],
            )

        sql = "SELECT COUNT(*) FROM transaction_logs WHERE quantity >= 3"
        trees = []
        for _ in range(2):
            db = make_db()
            db.bulk_write(zipf_docs(120, seed=2))
            db.refresh()
            root = db.explain_analyze(sql)
            shards = [span for span in root.walk() if span.name.startswith("query.shard[")]
            assert len(shards) == TOPOLOGY.num_shards
            trees.append(tree_structure(root))
        assert trees[0] == trees[1]

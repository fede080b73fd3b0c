"""Tests for batched execution (repro.exec) and the facade's one
execution path.

The contracts under test: ``bulk_write`` reports every document's
outcome in submission order; ``execute_batch`` answers every statement
exactly as ``execute_sql`` would while sharing scans; the chaos
fingerprints and trace sequences stay pinned; and user threads sharing
one instance lose nothing.
"""

from __future__ import annotations

import threading

import pytest

from repro.cluster import ClusterTopology
from repro.esdb import ESDB, EsdbConfig
from repro.exec import BulkItemResult, BulkResult
from repro.obsv import cat_exec
from repro.storage import ShardEngine
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


# -- bulk writes ---------------------------------------------------------------


class TestBulkWrite:
    def test_bulk_result_positions_and_shards(self):
        db = make_db()
        result = db.bulk_write([make_log(i, created=float(i)) for i in range(20)])
        assert isinstance(result, BulkResult)
        assert result.ok and result.applied == 20
        assert [item.position for item in result.items] == list(range(20))
        assert sum(result.shard_counts().values()) == 20
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


# -- shared execution ----------------------------------------------------------


QUERY_SET = (
    "SELECT * FROM transaction_logs WHERE quantity >= 3",
    "SELECT COUNT(*) FROM transaction_logs WHERE status = 1",
    "SELECT status, COUNT(*) FROM transaction_logs GROUP BY status",
    "SELECT * FROM transaction_logs WHERE amount <= 500 "
    "ORDER BY created_time DESC LIMIT 25",
)

#: One statement of each shape the planner distinguishes; none of them can
#: join the ``quantity`` family that rides along in the batch.
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

FAMILY_PAIR = (
    "SELECT * FROM transaction_logs WHERE quantity >= 3",
    "SELECT * FROM transaction_logs WHERE quantity <= 2",
)


def loaded_pair(count: int = 150, **extras) -> tuple[ESDB, ESDB]:
    """Two instances holding the same documents: one answers a batch, the
    other a loop over ``execute_sql``, so neither sees the other's caches."""
    dbs = make_db(**extras), make_db(**extras)
    for db in dbs:
        db.bulk_write(zipf_docs(count, seed=6))
        db.refresh()
    return dbs


class TestExecuteBatch:
    @pytest.mark.parametrize("sql", STATEMENT_SHAPES.values(), ids=STATEMENT_SHAPES)
    def test_each_shape_coalesces_with_its_duplicate(self, sql):
        looped, batched = loaded_pair()
        batch = [sql, FAMILY_PAIR[0], sql, FAMILY_PAIR[1]]
        results = batched.execute_batch(batch)
        assert results[0] is results[2]
        expected = [looped.execute_sql(statement) for statement in batch]
        assert expected[0].total_hits > 0
        assert [r.rows for r in results] == [r.rows for r in expected]
        assert [r.total_hits for r in results] == [r.total_hits for r in expected]
        metrics = batched.telemetry.metrics
        assert metrics.value("exec_shared_groups_total", kind="duplicate") == 1.0
        assert metrics.value("exec_shared_groups_total", kind="family") == 1.0
        assert metrics.total("exec_shared_saved_total") == 2.0

    def test_empty_batch_answers_nothing(self):
        db = make_db()
        assert db.execute_batch([]) == []
        assert db.telemetry.metrics.total("esdb_queries_total") == 0.0

    def test_family_beyond_max_group_starts_a_new_group(self):
        from repro.exec.shared import MAX_GROUP

        looped, batched = loaded_pair(100)
        batch = [
            f"SELECT * FROM transaction_logs WHERE quantity >= {value}"
            for value in range(MAX_GROUP + 2)
        ]
        results = batched.execute_batch(batch)
        metrics = batched.telemetry.metrics
        assert metrics.value("exec_shared_groups_total", kind="family") == 2.0
        assert metrics.total("exec_shared_saved_total") == len(batch) - 2
        for sql, result in zip(batch, results):
            assert result.rows == looped.execute_sql(sql).rows

    def test_each_scan_column_forms_its_own_family(self, monkeypatch):
        looped, batched = loaded_pair()
        batch = [
            FAMILY_PAIR[0],
            "SELECT * FROM transaction_logs WHERE status = 1",
            FAMILY_PAIR[1],
            "SELECT * FROM transaction_logs WHERE status = 2",
        ]
        columns = []
        multi_full_scan = ShardEngine.multi_full_scan

        def recording_scan(engine, column, predicates):
            columns.append(column)
            return multi_full_scan(engine, column, predicates)

        monkeypatch.setattr(ShardEngine, "multi_full_scan", recording_scan)
        results = batched.execute_batch(batch)
        shards = TOPOLOGY.num_shards
        assert columns == ["quantity"] * shards + ["status"] * shards
        metrics = batched.telemetry.metrics
        assert metrics.value("exec_shared_groups_total", kind="family") == 2.0
        assert metrics.total("exec_shared_saved_total") == 2.0
        for sql, result in zip(batch, results):
            assert result.rows == looped.execute_sql(sql).rows

    def test_tenant_filters_never_join_a_family(self):
        looped, batched = loaded_pair()
        batch = [
            "SELECT * FROM transaction_logs WHERE tenant_id = 1",
            "SELECT * FROM transaction_logs WHERE tenant_id = 2",
        ]
        results = batched.execute_batch(batch)
        assert batched.telemetry.metrics.series("exec_shared_groups_total") == []
        for sql, result in zip(batch, results):
            assert result.rows == looped.execute_sql(sql).rows

    def test_ordered_statements_never_join_a_family(self):
        looped, batched = loaded_pair()
        batch = [
            "SELECT * FROM transaction_logs WHERE quantity >= 3 "
            "ORDER BY created_time DESC",
            "SELECT * FROM transaction_logs WHERE quantity <= 2 "
            "ORDER BY created_time DESC",
        ]
        results = batched.execute_batch(batch)
        assert batched.telemetry.metrics.series("exec_shared_groups_total") == []
        for sql, result in zip(batch, results):
            assert result.rows == looped.execute_sql(sql).rows

    def test_unparseable_statement_raises_as_execute_sql_does(self):
        from repro.errors import QueryError

        db = make_db()
        bad = "SELEC * FROM transaction_logs"
        with pytest.raises(QueryError):
            db.execute_sql(bad)
        with pytest.raises(QueryError):
            db.execute_batch([FAMILY_PAIR[0], bad])

    def test_shared_scan_counts_one_subquery_per_shard(self):
        db = make_db()
        db.bulk_write(zipf_docs(150, seed=6))
        db.refresh()
        batch = [*FAMILY_PAIR, "SELECT * FROM transaction_logs WHERE quantity = 5"]
        db.execute_batch(batch)
        metrics = db.telemetry.metrics
        assert metrics.total("esdb_queries_total") == len(batch)
        assert metrics.total("esdb_subqueries_total") == TOPOLOGY.num_shards

    def test_family_shares_the_scan_with_tracing_off(self):
        from repro.telemetry import TraceConfig

        looped, batched = loaded_pair(tracing=TraceConfig.off())
        results = batched.execute_batch(list(FAMILY_PAIR))
        metrics = batched.telemetry.metrics
        assert metrics.value("exec_shared_groups_total", kind="family") == 1.0
        assert not any(
            span.name.startswith("batch.scan[")
            for span in batched.telemetry.tracer.recent_traces()
        )
        for sql, result in zip(FAMILY_PAIR, results):
            assert result.rows == looped.execute_sql(sql).rows

    def test_unrelated_statements_equal_a_loop_over_execute_sql(self):
        batch = [
            "SELECT COUNT(*) FROM transaction_logs WHERE status = 1",
            "SELECT status, COUNT(*) FROM transaction_logs GROUP BY status",
            "SELECT * FROM transaction_logs WHERE amount <= 500 "
            "ORDER BY created_time DESC LIMIT 25",
            "SELECT * FROM transaction_logs WHERE quantity >= 3 LIMIT 5",
        ]
        looped, batched = make_db(), make_db()
        for db in (looped, batched):
            db.bulk_write(zipf_docs(100, seed=6))
            db.refresh()
        expected = [looped.execute_sql(sql) for sql in batch]
        results = batched.execute_batch(batch)
        assert [r.rows for r in results] == [r.rows for r in expected]
        assert [r.total_hits for r in results] == [r.total_hits for r in expected]
        metrics = batched.telemetry.metrics
        assert metrics.series("exec_shared_groups_total") == []
        assert metrics.total("esdb_queries_total") == len(batch)

    def test_duplicates_coalesce_to_one_execution(self):
        db = make_db()
        db.bulk_write(zipf_docs(100, seed=6))
        db.refresh()
        batch = ["SELECT * FROM transaction_logs WHERE quantity >= 3"] * 8
        before = db.telemetry.metrics.total("esdb_queries_total")
        results = db.execute_batch(batch)
        metrics = db.telemetry.metrics
        assert metrics.total("esdb_queries_total") - before == 1.0
        assert metrics.total("exec_shared_saved_total") == 7.0
        assert metrics.value("exec_shared_groups_total", kind="duplicate") == 1.0
        independent = db.execute_sql(batch[0])
        for result in results:
            assert result.rows == independent.rows

    def test_same_column_family_shares_one_scan(self, monkeypatch):
        db = make_db()
        db.bulk_write(zipf_docs(150, seed=6))
        db.refresh()
        batch = [
            "SELECT * FROM transaction_logs WHERE quantity >= 3",
            "SELECT * FROM transaction_logs WHERE quantity <= 2",
            "SELECT * FROM transaction_logs WHERE quantity = 5",
        ]
        scans = []
        multi_full_scan = ShardEngine.multi_full_scan

        def counting_scan(engine, column, predicates):
            scans.append((engine.shard_id, column, len(predicates)))
            return multi_full_scan(engine, column, predicates)

        monkeypatch.setattr(ShardEngine, "multi_full_scan", counting_scan)
        results = db.execute_batch(batch)
        assert scans == [
            (shard_id, "quantity", len(batch))
            for shard_id in range(TOPOLOGY.num_shards)
        ]
        metrics = db.telemetry.metrics
        assert metrics.value("exec_shared_groups_total", kind="family") == 1.0
        assert metrics.total("exec_shared_saved_total") == 2.0
        for sql, result in zip(batch, results):
            independent = db.execute_sql(sql)
            assert result.rows == independent.rows
            assert result.total_hits == independent.total_hits

    def test_mixed_batch_results_align_with_positions(self):
        db = make_db()
        db.bulk_write(zipf_docs(150, seed=6))
        db.refresh()
        batch = [
            "SELECT * FROM transaction_logs WHERE quantity >= 3",
            "SELECT COUNT(*) FROM transaction_logs WHERE status = 1",
            "SELECT * FROM transaction_logs WHERE quantity >= 3",
            "SELECT status, COUNT(*) FROM transaction_logs GROUP BY status",
            "SELECT * FROM transaction_logs WHERE quantity <= 1",
        ]
        results = db.execute_batch(batch)
        for sql, result in zip(batch, results):
            independent = db.execute_sql(sql)
            assert result.rows == independent.rows

    def test_statements_with_limit_never_join_a_family(self):
        db = make_db()
        db.bulk_write(zipf_docs(100, seed=6))
        db.refresh()
        batch = [
            "SELECT * FROM transaction_logs WHERE quantity >= 3 LIMIT 5",
            "SELECT * FROM transaction_logs WHERE quantity <= 2 LIMIT 5",
        ]
        results = db.execute_batch(batch)
        assert db.telemetry.metrics.series("exec_shared_groups_total") == []
        for sql, result in zip(batch, results):
            assert result.rows == db.execute_sql(sql).rows

    def test_statements_differing_in_literal_spacing_stay_apart(self):
        db = make_db()
        db.bulk_write([
            make_log(1, tenant=1, status="a  b"),
            make_log(2, tenant=1, status="a b"),
        ])
        db.refresh()
        sql = "SELECT * FROM t WHERE tenant_id = 1 AND status = '{}'"
        results = db.execute_batch([sql.format("a  b"), sql.format("a b")])
        ids = [[row["transaction_id"] for row in result.rows] for result in results]
        assert ids == [[1], [2]]
        assert db.telemetry.metrics.total("exec_shared_saved_total") == 0.0


# -- storage: multi_full_scan --------------------------------------------------


class TestMultiFullScan:
    def test_equals_per_predicate_full_scan(self):
        db = make_db()
        db.bulk_write(zipf_docs(200, seed=8))
        db.refresh()
        predicates = [
            lambda v: v is not None and v >= 3,
            lambda v: v is not None and v <= 2,
            lambda v: v is not None and v == 5,
        ]
        for engine in db.engines.values():
            expected = [
                list(engine.full_scan("quantity", predicate))
                for predicate in predicates
            ]
            actual = [
                list(rows)
                for rows in engine.multi_full_scan("quantity", predicates)
            ]
            assert actual == expected

    def test_empty_predicates_empty_result(self):
        db = make_db()
        db.bulk_write(zipf_docs(20, seed=8))
        db.refresh()
        engine = next(iter(db.engines.values()))
        assert engine.multi_full_scan("quantity", []) == []


# -- observability -------------------------------------------------------------


class TestExecObservability:
    def test_cat_exec_empty_on_untouched_instance(self):
        db = make_db()
        table = cat_exec(db)
        assert len(table) == 0
        assert table.columns == ("stat", "detail", "value")

    def test_cat_exec_reports_bulk_and_shared_counters(self):
        db = make_db()
        db.bulk_write(zipf_docs(60, seed=3))
        db.refresh()
        db.execute_batch(["SELECT * FROM transaction_logs WHERE quantity >= 3"] * 2)
        assert cat_exec(db).rows == [
            ("bulk", "batches", 1),
            ("bulk", "docs", 60),
            ("shared", "groups:duplicate", 1),
            ("shared", "queries_saved", 1),
        ]

    def test_exec_derived_series_registered(self):
        db = make_db()
        db.bulk_write(zipf_docs(60, seed=3))
        db.advance_clock(db.now + 10.0)
        db.timeseries.sample(db.now)
        names = {series.name for series in db.timeseries.all_series()}
        assert "exec.bulk_docs_per_s" in names


# -- governed tenant cache (LRU regression) ------------------------------------


class TestQueryTenantCacheLru:
    def test_cache_evicts_stalest_entry_not_everything(self):
        from repro.tenancy import TenancyConfig

        db = make_db(tenancy=TenancyConfig(enabled=True))
        for i in range(512):
            db._query_tenant_cache[f"SELECT {i}"] = None
        db.write(make_log(1, tenant="t-cache", created=1.0))
        db.refresh()
        db.execute_sql(
            "SELECT * FROM transaction_logs WHERE tenant_id = 't-cache'"
        )
        # One probe evicted (the stalest), the rest retained — never a
        # wholesale clear.
        assert len(db._query_tenant_cache) == 512
        assert "SELECT 0" not in db._query_tenant_cache
        assert "SELECT 511" in db._query_tenant_cache

    def test_cache_hit_refreshes_recency(self):
        from repro.tenancy import TenancyConfig

        db = make_db(tenancy=TenancyConfig(enabled=True))
        db.write(make_log(1, tenant="t-cache", created=1.0))
        db.refresh()
        sql = "SELECT * FROM transaction_logs WHERE tenant_id = 't-cache'"
        db.execute_sql(sql)
        for i in range(511):
            db._query_tenant_cache[f"SELECT {i}"] = None
        db.execute_sql(sql)  # hit: moves the real entry to the fresh end
        db._query_tenant_cache["SELECT overflow"] = None
        while len(db._query_tenant_cache) > 512:
            db._query_tenant_cache.popitem(last=False)
        assert sql in db._query_tenant_cache


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
    """Same seed ⇒ same trace ids, same sampling decisions, same event
    sequence."""

    def _run_workload(self, tracing=None):
        from repro.obsv import ObsvConfig

        extras = {"obsv": ObsvConfig(search_info_seconds=0.0)}
        if tracing is not None:
            extras["tracing"] = tracing
        db = make_db(**extras)
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
        sampled = [
            span.trace_id is not None
            for span in db.telemetry.tracer.recent_traces()
        ]
        events = [
            (e.kind, e.tenant, e.shard, e.trace_id) for e in db.events.query()
        ]
        return trace_ids, sampled, events, db.trace_ids.issued

    def test_two_runs_are_identical(self):
        assert self._run_workload() == self._run_workload()

    def test_ratio_sampling_is_deterministic(self):
        from repro.telemetry import TraceConfig

        tracing = TraceConfig(sampler="ratio", ratio=0.5)
        assert self._run_workload(tracing) == self._run_workload(tracing)

    def test_fanout_query_span_tree_is_shard_ordered(self):
        db = make_db()
        db.bulk_write(zipf_docs(120, seed=2))
        db.refresh()
        trace = db.explain_analyze(
            "SELECT COUNT(*) FROM transaction_logs WHERE quantity >= 3"
        )
        shard_spans = [
            name for name in trace.stage_names() if name.startswith("query.shard[")
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
            assert len(root.find_prefix("query.shard[")) == TOPOLOGY.num_shards
            trees.append(tree_structure(root))
        assert trees[0] == trees[1]

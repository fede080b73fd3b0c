"""Tests for the concurrent execution core (repro.exec).

The contract under test, in one line: **the serial backend is
byte-identical to the pre-exec facade, and the threads backend produces
exactly the serial backend's observable results** — every acked write
durable, every query result equal, every chaos fingerprint unchanged.
"""

from __future__ import annotations

import threading

import pytest

from repro.cluster import ClusterTopology
from repro.errors import ConfigurationError, EsdbError
from repro.esdb import ESDB, EsdbConfig
from repro.exec import (
    BACKENDS,
    BulkItemResult,
    BulkResult,
    ExecConfig,
    ShardExecutor,
)
from repro.obsv import cat_exec
from repro.workload.generator import TransactionLogGenerator, WorkloadConfig
from tests.conftest import make_log

TOPOLOGY = ClusterTopology(num_nodes=2, num_shards=8, replicas_per_shard=0)


def make_db(exec_config: ExecConfig | None = None, **extras) -> ESDB:
    kwargs = {} if exec_config is None else {"exec": exec_config}
    kwargs.update(extras)
    return ESDB(
        EsdbConfig(topology=TOPOLOGY, consensus_interval=1.0, **kwargs)
    )


def zipf_docs(count: int, seed: int = 0) -> list[dict]:
    generator = TransactionLogGenerator(
        WorkloadConfig(num_tenants=100, seed=seed)
    )
    return [generator.generate(created_time=i * 0.02) for i in range(count)]


# -- configuration -------------------------------------------------------------


class TestExecConfig:
    def test_serial_default_is_disabled(self):
        config = ExecConfig()
        assert config.backend == "serial"
        assert not config.enabled
        assert not config.coalesce_queries

    def test_threads_preset(self):
        config = ExecConfig.threads(workers=3)
        assert config.backend == "threads"
        assert config.enabled
        assert config.coalesce_queries
        assert config.pool_size() == 3

    def test_pool_size_defaults_to_cpu_bound(self):
        assert 1 <= ExecConfig.threads().pool_size() <= 8

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigurationError):
            ExecConfig(backend="processes")

    def test_bad_workers_rejected(self):
        with pytest.raises(ConfigurationError):
            ExecConfig(backend="threads", workers=0)

    def test_bad_max_group_rejected(self):
        with pytest.raises(ConfigurationError):
            ExecConfig(max_group=0)

    def test_backends_tuple(self):
        assert BACKENDS == ("serial", "threads")

    def test_serial_facade_builds_no_executor(self):
        db = make_db()
        assert db.executor is None

    def test_threads_facade_builds_executor(self):
        db = make_db(ExecConfig.threads(workers=2))
        try:
            assert db.executor is not None
            assert db.executor.workers == 2
        finally:
            db.close()


# -- the executor --------------------------------------------------------------


class TestShardExecutor:
    def test_serial_map_is_a_plain_loop(self):
        executor = ShardExecutor(ExecConfig())
        assert executor.map_ordered(lambda k: k * 2, [3, 1, 2]) == [6, 2, 4]
        assert executor.tasks_run == 3

    def test_threads_map_gathers_in_input_order(self):
        import time as _time

        executor = ShardExecutor(ExecConfig.threads(workers=4))
        try:
            # Later keys finish first: input order must still win.
            def task(key):
                _time.sleep(0.002 * (4 - key))
                return key * 10

            assert executor.map_ordered(task, [0, 1, 2, 3]) == [0, 10, 20, 30]
        finally:
            executor.shutdown()

    def test_first_input_order_error_raises_after_all_complete(self):
        executor = ShardExecutor(ExecConfig.threads(workers=2))
        completed = []

        def task(key):
            if key == 1:
                raise ValueError(f"boom-{key}")
            completed.append(key)
            return key

        try:
            with pytest.raises(ValueError, match="boom-1"):
                executor.map_ordered(task, [0, 1, 2, 3])
            assert sorted(completed) == [0, 2, 3]  # the rest still ran
        finally:
            executor.shutdown()

    def test_queue_depth_returns_to_zero(self):
        executor = ShardExecutor(ExecConfig.threads(workers=2))
        try:
            executor.map_ordered(lambda k: k, list(range(16)))
            assert executor.queue_depth == 0
        finally:
            executor.shutdown()

    def test_single_key_runs_inline_without_worker_accounting(self):
        from repro.telemetry.metrics import MetricsRegistry

        metrics = MetricsRegistry()
        executor = ShardExecutor(ExecConfig.threads(workers=2), metrics=metrics)
        try:
            assert executor.map_ordered(lambda k: k + 1, [41]) == [42]
            assert metrics.series("exec_worker_tasks_total") == []
            assert metrics.value("exec_queue_depth") == 0.0
        finally:
            executor.shutdown()

    def test_shutdown_idempotent_and_context_manager(self):
        with ShardExecutor(ExecConfig.threads(workers=1)) as executor:
            assert executor.map_ordered(lambda k: k, [1, 2]) == [1, 2]
        executor.shutdown()  # second shutdown is a no-op


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
            assert item.shard_id == db._doc_shard[item.doc_id]

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

    def test_write_many_applies_then_raises(self):
        db = make_db()
        with pytest.raises(Exception):
            db.write_many([make_log(1, created=1.0), {"broken": True}])
        db.refresh()
        assert db.doc_count() == 1  # the earlier document stays written

    def test_bulk_item_result_defaults(self):
        item = BulkItemResult(position=0)
        assert item.ok and item.error is None and item.shard_id is None


# -- serial/threads equivalence ------------------------------------------------


QUERY_SET = (
    "SELECT * FROM transaction_logs WHERE quantity >= 3",
    "SELECT COUNT(*) FROM transaction_logs WHERE status = 1",
    "SELECT status, COUNT(*) FROM transaction_logs GROUP BY status",
    "SELECT * FROM transaction_logs WHERE amount <= 500 "
    "ORDER BY created_time DESC LIMIT 25",
)


class TestBackendEquivalence:
    def test_threads_backend_equals_serial_over_zipf_workload(self):
        docs = zipf_docs(400, seed=11)
        serial = make_db()
        threads = make_db(ExecConfig.threads(workers=4))
        try:
            serial_result = serial.bulk_write(docs)
            threads_result = threads.bulk_write(docs)
            assert serial_result.ok and threads_result.ok
            # Every acked write is durable on the same shard.
            for s_item, t_item in zip(serial_result.items, threads_result.items):
                assert t_item.shard_id == s_item.shard_id
                engine = threads.engines[t_item.shard_id]
                assert engine.contains(t_item.doc_id)
            serial.refresh()
            threads.refresh()
            # Every query result equals the serial backend's.
            for sql in QUERY_SET:
                expected = serial.execute_sql(sql)
                actual = threads.execute_sql(sql)
                assert actual.rows == expected.rows
                assert actual.total_hits == expected.total_hits
        finally:
            threads.close()

    def test_threads_fanout_query_span_tree_is_shard_ordered(self):
        threads = make_db(ExecConfig.threads(workers=4))
        try:
            threads.bulk_write(zipf_docs(120, seed=2))
            threads.refresh()
            trace = threads.explain_analyze(
                "SELECT COUNT(*) FROM transaction_logs WHERE quantity >= 3"
            )
            shard_spans = [
                name for name in trace.stage_names()
                if name.startswith("query.shard[")
            ]
            assert shard_spans == sorted(
                shard_spans, key=lambda n: int(n[len("query.shard["):-1])
            )
            assert len(shard_spans) == TOPOLOGY.num_shards
        finally:
            threads.close()


# -- shared execution ----------------------------------------------------------


class TestExecuteBatch:
    def test_serial_config_is_a_plain_loop(self):
        db = make_db()
        db.bulk_write(zipf_docs(100, seed=6))
        db.refresh()
        batch = ["SELECT COUNT(*) FROM transaction_logs WHERE status = 1"] * 3
        results = db.execute_batch(batch)
        assert len(results) == 3
        assert db.telemetry.metrics.total("exec_shared_saved_total") == 0.0

    def test_duplicates_coalesce_to_one_execution(self):
        db = make_db(ExecConfig(backend="serial", coalesce_queries=True))
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

    def test_same_column_family_shares_one_scan(self):
        db = make_db(ExecConfig(backend="serial", coalesce_queries=True))
        db.bulk_write(zipf_docs(150, seed=6))
        db.refresh()
        batch = [
            "SELECT * FROM transaction_logs WHERE quantity >= 3",
            "SELECT * FROM transaction_logs WHERE quantity <= 2",
            "SELECT * FROM transaction_logs WHERE quantity = 5",
        ]
        results = db.execute_batch(batch)
        metrics = db.telemetry.metrics
        assert metrics.value("exec_shared_groups_total", kind="family") == 1.0
        assert metrics.total("exec_shared_saved_total") == 2.0
        for sql, result in zip(batch, results):
            independent = db.execute_sql(sql)
            assert result.rows == independent.rows
            assert result.total_hits == independent.total_hits

    def test_mixed_batch_results_align_with_positions(self):
        db = make_db(ExecConfig(backend="serial", coalesce_queries=True))
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
        db = make_db(ExecConfig(backend="serial", coalesce_queries=True))
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

    def test_threads_backend_batch_equals_independent(self):
        db = make_db(ExecConfig.threads(workers=4))
        try:
            db.bulk_write(zipf_docs(150, seed=6))
            db.refresh()
            batch = [
                "SELECT * FROM transaction_logs WHERE quantity >= 3",
                "SELECT * FROM transaction_logs WHERE quantity >= 3",
                "SELECT * FROM transaction_logs WHERE quantity <= 2",
                "SELECT COUNT(*) FROM transaction_logs WHERE status = 1",
            ]
            results = db.execute_batch(batch)
            for sql, result in zip(batch, results):
                independent = db.execute_sql(sql)
                assert result.rows == independent.rows
        finally:
            db.close()


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
    def test_cat_exec_empty_on_untouched_serial_instance(self):
        db = make_db()
        table = cat_exec(db)
        assert len(table) == 0
        assert table.columns == ("stat", "detail", "value")

    def test_cat_exec_reports_pool_and_counters(self):
        db = make_db(ExecConfig.threads(workers=2))
        try:
            db.bulk_write(zipf_docs(60, seed=3))
            stats = {(row[0], row[1]) for row in cat_exec(db).rows}
            assert ("pool", "backend=threads") in stats
            assert ("bulk", "docs") in stats
        finally:
            db.close()

    def test_cluster_snapshot_exec_key_only_when_configured(self):
        from repro.obsv import cluster_snapshot

        serial = make_db()
        assert "exec" not in cluster_snapshot(serial)
        threads = make_db(ExecConfig.threads(workers=2))
        try:
            snapshot = cluster_snapshot(threads)
            assert snapshot["exec"]["backend"] == "threads"
            assert snapshot["exec"]["workers"] == 2
        finally:
            threads.close()

    def test_exec_derived_series_registered(self):
        db = make_db(ExecConfig.threads(workers=2))
        try:
            db.bulk_write(zipf_docs(60, seed=3))
            db.sample_timeseries(now=db.now + 10.0, force=True)
            names = {series.name for series in db.timeseries.all_series()}
            assert "exec.tasks_per_s" in names
            assert "exec.bulk_docs_per_s" in names
        finally:
            db.close()


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


#: Captured before the execution core landed: the serial backend (and the
#: threads backend, whose fingerprint quantities are all deterministic)
#: must reproduce these byte-for-byte forever.
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

    def test_threads_failover_fingerprint_equals_serial(self):
        from repro.faults import ChaosConfig, ChaosRunner
        from repro.faults.__main__ import build_failover_plan

        report = ChaosRunner(
            build_failover_plan(0, 200, 8),
            ChaosConfig(steps=200, exec_backend="threads"),
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

    def test_unknown_exec_backend_rejected(self):
        from repro.faults import ChaosConfig

        with pytest.raises(ConfigurationError):
            ChaosConfig(exec_backend="fibers")


# -- engine locking under concurrency ------------------------------------------


class TestEngineLockingStress:
    def test_concurrent_index_refresh_query_loses_nothing(self):
        """Fixed-seed stress: writers, a refresher and readers hammer one
        instance concurrently. No exception may escape any thread and
        every acked write must be durable and readable afterwards."""
        db = make_db(ExecConfig.threads(workers=4))
        docs = zipf_docs(600, seed=13)
        errors: list[BaseException] = []
        acked: list[dict] = []
        acked_lock = threading.Lock()
        stop = threading.Event()

        def writer(chunk: list[dict]) -> None:
            try:
                for doc in chunk:
                    db.write(doc)
                    with acked_lock:
                        acked.append(doc)
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
            db.close()
        assert errors == []
        assert len(acked) == len(docs)
        db.refresh()
        for doc in acked:
            doc_id = doc["transaction_id"]
            shard_id = db._doc_shard[doc_id]
            assert db.engines[shard_id].contains(doc_id)
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

    def test_threads_failover_fingerprint_with_tracing_off(self):
        from repro.faults import ChaosConfig, ChaosRunner
        from repro.faults.__main__ import build_failover_plan
        from repro.telemetry import TraceConfig

        report = ChaosRunner(
            build_failover_plan(0, 200, 8),
            ChaosConfig(
                steps=200, exec_backend="threads", tracing=TraceConfig.off()
            ),
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
    sequence — on every backend."""

    def _run_workload(self, exec_config, tracing=None):
        from repro.obsv import ObsvConfig

        extras = {"obsv": ObsvConfig(search_info_seconds=0.0)}
        if tracing is not None:
            extras["tracing"] = tracing
        db = make_db(exec_config, **extras)
        try:
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
            issued = db.trace_ids.issued
        finally:
            db.close()
        return trace_ids, sampled, events, issued

    def test_serial_and_threads_produce_identical_ids_and_events(self):
        serial = self._run_workload(None)
        threads = self._run_workload(ExecConfig.threads(workers=4))
        assert serial == threads

    def test_two_serial_runs_are_identical(self):
        assert self._run_workload(None) == self._run_workload(None)

    def test_ratio_sampling_is_deterministic_across_backends(self):
        from repro.telemetry import TraceConfig

        tracing = TraceConfig(sampler="ratio", ratio=0.5)
        serial = self._run_workload(None, tracing=tracing)
        threads = self._run_workload(
            ExecConfig.threads(workers=4), tracing=tracing
        )
        assert serial == threads

    def test_explain_analyze_tree_structure_equal_serial_vs_threads(self):
        """Acceptance: under ExecConfig.threads() the multi-shard query tree
        carries real per-shard worker spans, byte-equal in structure
        (names, order, non-timing tags, ids) to the serial backend's."""

        def tree_structure(span):
            return (
                span.name,
                span.trace_id,
                span.span_id,
                {k: v for k, v in span.tags.items()},
                [tree_structure(child) for child in span.children],
            )

        sql = "SELECT COUNT(*) FROM transaction_logs WHERE quantity >= 3"
        trees = {}
        for label, exec_config in (
            ("serial", None),
            ("threads", ExecConfig.threads(workers=4)),
        ):
            db = make_db(exec_config)
            try:
                db.bulk_write(zipf_docs(120, seed=2))
                db.refresh()
                root = db.explain_analyze(sql)
            finally:
                db.close()
            shard_spans = root.find_prefix("query.shard[")
            assert len(shard_spans) == TOPOLOGY.num_shards
            trees[label] = tree_structure(root)
        assert trees["serial"] == trees["threads"]

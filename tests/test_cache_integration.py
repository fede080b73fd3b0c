"""End-to-end tests of the three cache levels through the ESDB facade:
hit/miss behaviour, read-your-writes under refresh/delete/rule-append,
explain_analyze cache spans, stats_report lines, and the client cache."""

from __future__ import annotations


from repro import ESDB, CacheConfig, EsdbConfig
from repro.client import QueryClient
from repro.cluster import ClusterTopology
from repro.routing import DynamicSecondaryHashRouting
from tests.conftest import make_log

TOPOLOGY = ClusterTopology(num_nodes=2, num_shards=8)


def build_db(cache: CacheConfig | None = None, **kwargs) -> ESDB:
    config = EsdbConfig(
        topology=TOPOLOGY,
        auto_refresh_every=None,
        cache=cache if cache is not None else CacheConfig(),
        **kwargs,
    )
    db = ESDB(config)
    for i in range(40):
        db.write(make_log(i, tenant=f"t{i % 4}", created=float(i), status=i % 3))
    db.refresh()
    return db


QUERY = "SELECT * FROM transaction_logs WHERE tenant_id = 't1' AND status = 1"


def rows_of(result):
    return sorted(repr(sorted(r.items(), key=str)) for r in result.rows)


class TestCoordinatorResultCache:
    def test_second_execution_hits(self):
        db = build_db()
        first = db.execute_sql(QUERY)
        assert db.result_cache.stats.hits == 0
        second = db.execute_sql(QUERY)
        assert db.result_cache.stats.hits == 1
        assert rows_of(first) == rows_of(second)
        assert first.total_hits == second.total_hits
        assert first.subqueries == second.subqueries

    def test_whitespace_variant_still_hits(self):
        db = build_db()
        db.execute_sql(QUERY)
        db.execute_sql(QUERY.replace(" AND ", "  AND\n "))
        assert db.result_cache.stats.hits == 1

    def test_literal_spacing_variant_misses(self):
        db = ESDB(EsdbConfig(topology=TOPOLOGY, auto_refresh_every=None))
        db.write(make_log(1, tenant=1, status="a  b"))
        db.write(make_log(2, tenant=1, status="a b"))
        db.refresh()
        sql = "SELECT * FROM t WHERE tenant_id = 1 AND status = '{}'"
        db.execute_sql(sql.format("a  b"))
        rows = db.execute_sql(sql.format("a b")).rows
        assert [row["transaction_id"] for row in rows] == [2]

    def test_hit_skips_shard_fanout(self):
        db = build_db()
        db.execute_sql(QUERY)
        subqueries = db.telemetry.metrics.total("esdb_subqueries_total")
        db.execute_sql(QUERY)
        assert db.telemetry.metrics.total("esdb_subqueries_total") == subqueries
        assert db.telemetry.metrics.total("esdb_queries_total") == 2

    def test_read_your_writes_after_refresh(self):
        db = build_db()
        before = db.execute_sql(QUERY)
        db.write(make_log(100, tenant="t1", created=100.0, status=1))
        db.refresh()  # generation bump -> cached entry is stale
        after = db.execute_sql(QUERY)
        assert after.total_hits == before.total_hits + 1

    def test_delete_invalidates_without_refresh(self):
        db = build_db()
        before = db.execute_sql(QUERY)
        victim = next(iter(before.rows))["transaction_id"]
        db.delete(victim)
        after = db.execute_sql(QUERY)
        assert after.total_hits == before.total_hits - 1

    def test_rule_append_invalidates_and_stays_correct(self):
        db = build_db()
        db.execute_sql(QUERY)
        db.execute_sql(QUERY)
        assert db.result_cache.stats.hits == 1
        # Commit a routing rule for the queried tenant: fan-out widens.
        db.policy.rules.update(1000.0, 4, "t1")
        result = db.execute_sql(QUERY)
        assert db.result_cache.stats.hits == 1  # version changed -> miss
        assert result.subqueries == 4
        # New docs routed under the new rule are found (read-your-writes).
        db.write(make_log(200, tenant="t1", created=2000.0, status=1))
        db.refresh()
        assert db.execute_sql(QUERY).total_hits == result.total_hits + 1

    def test_execute_statement_cached_too(self):
        from repro.query import parse_sql

        db = build_db()
        statement = parse_sql(QUERY)
        db.execute_statement(statement)
        db.execute_statement(parse_sql(QUERY))
        assert db.result_cache.stats.hits == 1


class TestShardRequestCache:
    def cfg(self) -> CacheConfig:
        # Result cache off so lookups reach the shard level.
        return CacheConfig(result_cache_enabled=False)

    def test_per_shard_hits_when_result_cache_off(self):
        db = build_db(cache=self.cfg())
        assert db.result_cache is None
        first = db.execute_sql(QUERY)
        misses = db.request_cache.stats.misses
        assert misses >= 1
        second = db.execute_sql(QUERY)
        assert db.request_cache.stats.hits == misses
        assert rows_of(first) == rows_of(second)

    def test_refresh_on_one_shard_only_invalidates_that_shard(self):
        db = build_db(cache=self.cfg())
        wide = "SELECT * FROM transaction_logs WHERE status = 1"  # all shards
        before = db.execute_sql(wide)
        assert before.subqueries == TOPOLOGY.num_shards
        shard = db.write(make_log(300, tenant="t1", created=300.0, status=1))
        db.engines[shard].refresh()
        after = db.execute_sql(wide)
        # Only the refreshed shard recomputes; the other 7 hit the cache.
        assert db.request_cache.stats.hits == TOPOLOGY.num_shards - 1
        assert after.total_hits == before.total_hits + 1

    def test_cached_vs_uncached_results_identical(self):
        cached = build_db()
        uncached = build_db(cache=CacheConfig.off())
        assert uncached.request_cache is None and uncached.result_cache is None
        for sql in (
            QUERY,
            "SELECT * FROM transaction_logs WHERE status = 2",
            "SELECT COUNT(*) FROM transaction_logs WHERE tenant_id = 't2'",
            "SELECT * FROM transaction_logs WHERE tenant_id = 't0' "
            "ORDER BY created_time DESC LIMIT 5",
        ):
            for _ in range(2):  # second pass exercises warm caches
                a = cached.execute_sql(sql)
                b = uncached.execute_sql(sql)
                assert rows_of(a) == rows_of(b)
                assert a.total_hits == b.total_hits


class TestExplainAnalyzeCacheSpans:
    def test_hit_shows_cache_span_instead_of_executor_subtree(self):
        db = build_db()
        cold = db.explain_analyze(QUERY)
        assert cold.find_prefix("query.shard[")
        assert cold.find("cache.hit") is None
        warm = db.explain_analyze(QUERY)
        hit = warm.find("cache.hit")
        assert hit is not None
        assert hit.tags["level"] == "result"
        assert not warm.find_prefix("query.shard[")
        assert warm.tags["rows"] == cold.tags["rows"]

    def test_request_level_hit_span_inside_shard_span(self):
        db = build_db(cache=CacheConfig(result_cache_enabled=False))
        db.explain_analyze(QUERY)
        warm = db.explain_analyze(QUERY)
        shard_spans = warm.find_prefix("query.shard[")
        assert shard_spans
        for span in shard_spans:
            assert span.tags.get("cache") == "hit"
            assert span.find("cache.hit") is not None


class TestStatsReport:
    def test_cache_lines_present_after_activity(self):
        db = build_db()
        db.execute_sql(QUERY)
        db.execute_sql(QUERY)
        # A term query on a non-composite column reaches the segment filter
        # cache (tenant-prefixed queries use the composite index instead).
        db.execute_sql("SELECT * FROM transaction_logs WHERE group = 1")
        report = db.stats_report()
        assert "cache[filter]:" in report
        assert "cache[result]:" in report

    def test_no_cache_lines_when_disabled(self):
        db = build_db(cache=CacheConfig.off())
        db.execute_sql(QUERY)
        assert "cache[" not in db.stats_report()

    def test_works_with_telemetry_disabled(self):
        db = build_db(telemetry_enabled=False)
        db.execute_sql(QUERY)
        db.execute_sql(QUERY)
        # Local stats still track even though the registry is a no-op.
        assert db.result_cache.stats.hits == 1
        assert "cache[" not in db.stats_report()


class TestClientCache:
    def test_client_cache_hits_and_rule_version_invalidates(self):
        policy = DynamicSecondaryHashRouting(8)
        calls = []

        def run_subquery(shard_id):
            calls.append(shard_id)
            return [{"tenant_id": "t1", "v": shard_id}]

        client = QueryClient(policy, run_subquery, cache_bytes=64 * 1024)
        first = client.query("t1")
        assert client.cache.stats.misses == 1
        second = client.query("t1")
        assert client.cache.stats.hits == 1
        assert first.rows == second.rows
        assert len(calls) == first.subqueries  # no extra subqueries on hit
        policy.rules.update(10.0, 4, "t1")  # version bump -> miss
        client.query("t1")
        assert client.cache.stats.hits == 1
        assert len(calls) > first.subqueries

    def test_invalidate_cache(self):
        policy = DynamicSecondaryHashRouting(8)
        client = QueryClient(policy, lambda s: [], cache_bytes=1024)
        client.query("t1")
        assert client.invalidate_cache() == 1
        client.query("t1")
        assert client.cache.stats.misses == 2

    def test_cache_off_by_default(self):
        policy = DynamicSecondaryHashRouting(8)
        client = QueryClient(policy, lambda s: [])
        assert client.cache is None
        client.query("t1")
        assert client.invalidate_cache() == 0

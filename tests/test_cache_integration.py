"""End-to-end tests of the three cache levels through the ESDB facade:
hit/miss behaviour, read-your-writes under refresh/delete/rule-append,
explain_analyze cache spans and report lines."""

from __future__ import annotations


from repro import ESDB, EsdbConfig
from repro.cluster import ClusterTopology
from repro.obsv import cat_caches, snapshot
from tests.conftest import make_log

TOPOLOGY = ClusterTopology(num_nodes=2, num_shards=8)


def build_db(result_cache: bool = True, **kwargs) -> ESDB:
    """The test instance; without *result_cache* its coordinator cache is
    dropped, so repeats reach the shard request cache."""
    db = ESDB(EsdbConfig(topology=TOPOLOGY, auto_refresh_every=None, **kwargs))
    if not result_cache:
        db.coordinator.result_cache = None
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
        db.delete(victim, tenant_id="t1")
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


def _tap(fn, calls: list):
    """*fn*, recording each call's positional arguments in *calls*."""

    def tapped(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    return tapped


class TestResultCacheHitAccounting:
    """A result-cache entry carries the tenant and filter terms its miss
    computed, so a hit is accounted to the same tenant on an ungoverned
    instance too."""

    def test_hit_records_the_tenant_and_terms_of_its_miss(self):
        db = build_db(slo=True)
        slo, hot, search = [], [], []
        db.slo.record = _tap(db.slo.record, slo)
        db.hotkeys.record_query = _tap(db.hotkeys.record_query, hot)
        db.obsv.record_search = _tap(db.obsv.record_search, search)
        sql = QUERY + " LIMIT 5"
        for _ in range(3):
            db.execute_sql(sql)
        assert db.result_cache.stats.hits == 2
        assert [args[0] for args in slo] == ["query"] * 3
        assert [args[0] for args in search] == ["t1"] * 3
        tenant, _, terms = hot[0]
        assert tenant == "t1"
        assert set(terms) == {"tenant_id=t1", "status=1"}
        assert hot == [hot[0]] * 3


class TestShardRequestCache:
    def test_per_shard_hits_when_result_cache_off(self):
        """A statement is probed and stored from its second sighting on:
        the first probes no shard and stores nothing, the second misses
        and stores one entry per shard, the third hits every shard."""
        db = build_db(result_cache=False)
        assert db.result_cache is None
        stats = db.request_cache.stats
        first = db.execute_sql(QUERY)
        shards = first.subqueries
        assert shards >= 1
        assert (stats.misses, stats.insertions) == (0, 0)
        db.execute_sql(QUERY)
        assert (stats.hits, stats.misses, stats.insertions) == (0, shards, shards)
        third = db.execute_sql(QUERY)
        assert stats.hits == shards
        assert rows_of(first) == rows_of(third)

    def test_refresh_on_one_shard_only_invalidates_that_shard(self):
        db = build_db(result_cache=False)
        wide = "SELECT * FROM transaction_logs WHERE status = 1"  # all shards
        before = db.execute_sql(wide)
        assert before.subqueries == TOPOLOGY.num_shards
        # One admission per fan-out: the other shards of a first sighting
        # are not its second.
        assert db.request_cache.stats.insertions == 0
        db.execute_sql(wide)
        assert db.request_cache.stats.insertions == TOPOLOGY.num_shards
        shard = db.write(make_log(300, tenant="t1", created=300.0, status=1))
        db.engines[shard].refresh()
        after = db.execute_sql(wide)
        # Only the refreshed shard recomputes (and is stored again); the
        # other 7 hit the cache.
        assert db.request_cache.stats.hits == TOPOLOGY.num_shards - 1
        assert db.request_cache.stats.insertions == TOPOLOGY.num_shards + 1
        assert after.total_hits == before.total_hits + 1

    def test_cached_vs_uncached_results_identical(self):
        cached = build_db()
        request_only = build_db(result_cache=False)
        uncached = build_db(cache=False)
        assert uncached.request_cache is None and uncached.result_cache is None
        for sql in (
            QUERY,
            "SELECT * FROM transaction_logs WHERE status = 2",
            "SELECT COUNT(*) FROM transaction_logs WHERE tenant_id = 't2'",
            "SELECT * FROM transaction_logs WHERE tenant_id = 't0' "
            "ORDER BY created_time DESC LIMIT 5",
        ):
            # The third pass hits the request entries the second stored.
            for _ in range(3):
                expected = uncached.execute_sql(sql)
                for db in (cached, request_only):
                    got = db.execute_sql(sql)
                    assert rows_of(got) == rows_of(expected)
                    assert got.total_hits == expected.total_hits
        assert request_only.request_cache.stats.hits > 0


class TestExplainAnalyzeCacheSpans:
    def test_hit_shows_cache_span_instead_of_executor_subtree(self):
        db = build_db()
        cold = db.explain_analyze(QUERY)
        assert [span for span in cold.walk() if span.name.startswith("query.shard[")]
        assert cold.find("cache.hit") is None
        warm = db.explain_analyze(QUERY)
        hit = warm.find("cache.hit")
        assert hit is not None
        assert hit.tags["level"] == "result"
        assert not [span for span in warm.walk() if span.name.startswith("query.shard[")]
        assert warm.tags["rows"] == cold.tags["rows"]

    def test_request_level_hit_span_inside_shard_span(self):
        db = build_db(result_cache=False)
        db.explain_analyze(QUERY)
        db.explain_analyze(QUERY)  # the second sighting stores
        warm = db.explain_analyze(QUERY)
        shard_spans = [span for span in warm.walk() if span.name.startswith("query.shard[")]
        assert shard_spans
        for span in shard_spans:
            assert span.tags.get("cache") == "hit"
            assert span.find("cache.hit") is not None


def active_levels(db) -> dict:
    """``cat_caches`` rows of *db*'s snapshot that saw a hit or a miss."""
    return {
        row["level"]: row
        for row in cat_caches(snapshot(db)).to_dicts()
        if row["hits"] + row["misses"]
    }


class TestCacheTable:
    def test_cache_rows_active_after_activity(self):
        db = build_db()
        db.execute_sql(QUERY)
        db.execute_sql(QUERY)
        # A term query on a non-composite column reaches the segment filter
        # cache (tenant-prefixed queries use the composite index instead).
        db.execute_sql("SELECT * FROM transaction_logs WHERE group = 1")
        levels = active_levels(db)
        assert "filter" in levels
        assert "result" in levels

    def test_no_cache_rows_active_when_disabled(self):
        db = build_db(cache=False)
        db.execute_sql(QUERY)
        levels = active_levels(db)
        # The statement-shape map is no cache level: it always runs.
        assert list(levels) == ["shapes"]
        assert (levels["shapes"]["hits"], levels["shapes"]["misses"]) == (0, 1)

    def test_works_with_telemetry_disabled(self):
        db = build_db(telemetry_enabled=False)
        db.execute_sql(QUERY)
        db.execute_sql(QUERY)
        # Local stats still track even though the registry is a no-op.
        assert db.result_cache.stats.hits == 1
        assert active_levels(db) == {}

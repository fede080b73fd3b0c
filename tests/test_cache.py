"""Unit tests for the repro.cache package: the LRU core, fingerprints, and
the three cache levels in isolation."""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.cache import (
    FILTER_CACHE_BYTES,
    CoordinatorResultCache,
    LruCache,
    SegmentFilterCache,
    ShardRequestCache,
    estimate_bytes,
    filter_key,
    normalize_sql,
    posting_cost,
    sql_fingerprint,
    statement_fingerprint,
)
from repro import ESDB, EsdbConfig
from repro.cache.request_cache import SEEN_STATEMENTS
from repro.errors import ConfigurationError
from repro.query import parse_sql
from repro.storage import EngineConfig, ShardEngine
from repro.storage.postings import PostingList
from repro.telemetry import Telemetry
from tests.conftest import make_log


class TestLruCache:
    def test_put_get_roundtrip(self):
        cache = LruCache(1024)
        assert cache.put("k", "v", cost=10)
        assert cache.get("k") == "v"
        assert cache.stats.hits == 1
        assert cache.stats.bytes == 10

    def test_miss_counts(self):
        cache = LruCache(1024)
        assert cache.get("absent") is None
        assert cache.stats.misses == 1

    def test_eviction_is_lru_order(self):
        cache = LruCache(100)
        cache.put("a", 1, cost=40)
        cache.put("b", 2, cost=40)
        cache.get("a")  # refresh a's recency: b is now LRU
        cache.put("c", 3, cost=40)  # over budget -> evict b
        assert cache.keys() == ["a", "c"]  # least recently used first
        assert cache.stats.evictions == 1
        assert cache.stats.bytes == 80

    def test_oversize_value_not_cached(self):
        cache = LruCache(100)
        assert not cache.put("huge", "x", cost=101)
        assert len(cache) == 0

    def test_replacing_key_reaccounts_bytes(self):
        cache = LruCache(100)
        cache.put("k", "old", cost=60)
        cache.put("k", "new", cost=10)
        assert cache.stats.bytes == 10
        assert cache.get("k") == "new"

    def test_pop_is_invalidation_not_eviction(self):
        cache = LruCache(100)
        cache.put("k", "v", cost=10)
        assert cache.pop("k") == "v"
        assert cache.stats.invalidations == 1
        assert cache.stats.evictions == 0
        assert cache.stats.bytes == 0

    def test_clear_resets_bytes(self):
        cache = LruCache(100)
        cache.put("a", 1, cost=30)
        cache.put("b", 2, cost=30)
        assert cache.clear() == 2
        assert cache.stats.bytes == 0
        assert len(cache) == 0

    def test_on_evict_callback_fires(self):
        seen = []
        cache = LruCache(50, on_evict=lambda k, v: seen.append((k, v)))
        cache.put("a", 1, cost=30)
        cache.put("b", 2, cost=30)  # evicts a
        assert seen == [("a", 1)]

    def test_budget_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            LruCache(0)

    def test_telemetry_counters_mirrored(self):
        telemetry = Telemetry()
        cache = LruCache(100, level="filter", metrics=telemetry.metrics)
        cache.put("k", "v", cost=10)
        cache.get("k")
        cache.get("absent")
        assert telemetry.metrics.value("cache_hits_total", level="filter") == 1
        assert telemetry.metrics.value("cache_misses_total", level="filter") == 1
        assert telemetry.metrics.value("cache_bytes", level="filter") == 10

    def test_hit_rate(self):
        cache = LruCache(100)
        cache.put("k", "v", cost=1)
        cache.get("k")
        cache.get("absent")
        assert cache.stats.hit_rate == 0.5


class TestEstimateBytes:
    def test_monotone_with_content_size(self):
        small = estimate_bytes({"a": 1})
        large = estimate_bytes({"a": 1, "b": "x" * 100})
        assert large > small

    def test_posting_cost_scales_with_length(self):
        short = posting_cost(PostingList.of(1, 2))
        long = posting_cost(PostingList(range(100)))
        assert long > short


#: ``normalize_sql`` input → output: whitespace collapses outside string
#: literals only, and a literal ends at the parser's closing quote.
NORMALIZED = {
    "runs outside literals": ("SELECT  *\tFROM\n t", "SELECT * FROM t"),
    "leading and trailing": ("  SELECT 1  ", "SELECT 1"),
    "spaced literal": ("s = 'a  b'", "s = 'a  b'"),
    "spaced literal, spaced outside": ("s  =  'a  b'  ", "s = 'a  b'"),
    "tab and newline in a literal": (
        "s = 'a\t\nb'   AND x = 1", "s = 'a\t\nb' AND x = 1"
    ),
    "escaped quote": ("s = 'it''s  ok'  AND  x = 1", "s = 'it''s  ok' AND x = 1"),
    "empty literal": ("s = ''   AND t = 'x  y'", "s = '' AND t = 'x  y'"),
    "literals in a list": ("s IN ('a  b',   'c  d')", "s IN ('a  b', 'c  d')"),
}


class TestFingerprints:
    def test_sql_whitespace_insensitive(self):
        a = sql_fingerprint("SELECT *  FROM t\n WHERE x = 1")
        b = sql_fingerprint("SELECT * FROM t WHERE x = 1")
        assert a == b

    def test_sql_literals_stay_distinct(self):
        a = sql_fingerprint("SELECT * FROM t WHERE x = 'Abc'")
        b = sql_fingerprint("SELECT * FROM t WHERE x = 'abc'")
        assert a != b

    def test_normalize_sql(self):
        assert normalize_sql("  a \t b\n c ") == "a b c"

    def test_whitespace_inside_literals_is_kept(self):
        spaced = "SELECT * FROM t WHERE s = 'a  b'"
        assert sql_fingerprint(spaced) != sql_fingerprint(
            "SELECT * FROM t WHERE s = 'a b'"
        )
        assert sql_fingerprint("SELECT   *  FROM t WHERE s = 'a  b'") == (
            sql_fingerprint(spaced)
        )
        assert normalize_sql(" x = 'it''s \t a'  AND\ny ") == "x = 'it''s \t a' AND y"

    @pytest.mark.parametrize(
        ("sql", "normalized"), NORMALIZED.values(), ids=NORMALIZED
    )
    def test_normalize_sql_cases(self, sql, normalized):
        assert normalize_sql(sql) == normalized
        assert normalize_sql(normalized) == normalized

    def test_literal_case_is_kept(self):
        assert sql_fingerprint("SELECT * FROM t WHERE s = 'A'") != sql_fingerprint(
            "SELECT * FROM t WHERE s = 'a'"
        )

    def test_statement_fingerprint_stable_and_discriminating(self):
        s1 = parse_sql("SELECT * FROM t WHERE tenant_id = 1")
        s2 = parse_sql("SELECT * FROM t WHERE tenant_id = 1")
        s3 = parse_sql("SELECT * FROM t WHERE tenant_id = 2")
        assert statement_fingerprint(s1) == statement_fingerprint(s2)
        assert statement_fingerprint(s1) != statement_fingerprint(s3)

    def test_key_spaces_disjoint(self):
        assert sql_fingerprint("x").startswith("sql:")
        stmt = parse_sql("SELECT * FROM t")
        assert statement_fingerprint(stmt).startswith("stmt:")


class TestSegmentFilterCache:
    def test_roundtrip_and_invalidate_segment(self):
        cache = SegmentFilterCache(4096)
        key = filter_key("term", "status", 1)
        postings = PostingList.of(1, 2, 3)
        cache.put(7, key, postings)
        assert cache.get(7, key) is postings
        assert cache.invalidate_segment(7) == 1
        assert cache.get(7, key) is None

    def test_segments_are_independent(self):
        cache = SegmentFilterCache(4096)
        key = filter_key("term", "status", 1)
        cache.put(1, key, PostingList.of(1))
        cache.put(2, key, PostingList.of(2))
        cache.invalidate_segment(1)
        assert cache.get(1, key) is None
        assert len(cache.get(2, key)) == 1

    def test_eviction_cleans_segment_index(self):
        cache = SegmentFilterCache(posting_cost(PostingList.of(1)) + 8)
        cache.put(1, filter_key("term", "a", 1), PostingList.of(1))
        cache.put(2, filter_key("term", "b", 2), PostingList.of(2))  # evicts seg-1 entry
        assert cache.stats.evictions == 1
        assert cache.invalidate_segment(1) == 0  # already gone, index is clean


class TestShardRequestCache:
    def test_generation_is_part_of_the_key(self):
        cache = ShardRequestCache(4096)
        cache.put(0, "stmt:x", 1, (["row"], 1), cost=64)
        assert cache.get(0, "stmt:x", 1) == (["row"], 1)
        assert cache.get(0, "stmt:x", 2) is None  # new generation -> miss

    def test_admit_forgets_its_oldest_fingerprint_past_the_bound(self):
        cache = ShardRequestCache(4096)
        for i in range(SEEN_STATEMENTS):
            assert not cache.admit(f"stmt:{i}")
        assert cache.admit("stmt:0")  # a repeat keeps its place: insertion order
        assert not cache.admit("stmt:new")  # one past the bound: stmt:0 goes
        assert not cache.admit("stmt:0")
        assert cache.admit(f"stmt:{SEEN_STATEMENTS - 1}")

    def test_a_forgotten_statement_still_hits_its_live_entries(self):
        db = ESDB(EsdbConfig(auto_refresh_every=None))
        db.coordinator.result_cache = None  # every repeat reaches the shards
        for i in range(20):
            db.write(make_log(i, tenant=i % 2, created=float(i)))
        db.refresh()
        sql = "SELECT * FROM t WHERE tenant_id = 1"
        for _ in range(2):  # the second sighting stores
            db.execute_sql(sql)
        cache = db.request_cache
        stored = cache.stats.insertions
        assert stored > 0
        for i in range(SEEN_STATEMENTS):
            cache.admit(f"stmt:other{i}")
        db.execute_sql(sql)
        assert cache.stats.hits == stored

    def test_invalidate_shard_only_touches_that_shard(self):
        cache = ShardRequestCache(4096)
        cache.put(0, "stmt:x", 1, ([], 0), cost=64)
        cache.put(1, "stmt:x", 1, ([], 0), cost=64)
        assert cache.invalidate_shard(0) == 1
        assert cache.get(0, "stmt:x", 1) is None
        assert cache.get(1, "stmt:x", 1) == ([], 0)

    def test_attach_invalidates_on_refresh_and_merge(self, engine_config):
        from dataclasses import replace

        from repro.storage import TieredMergePolicy

        engine = ShardEngine(
            replace(engine_config, auto_refresh_every=None),
            merge_policy=TieredMergePolicy(merge_factor=2),
        )
        cache = ShardRequestCache(4096)
        cache.attach(engine)
        cache.put(engine.shard_id, "stmt:x", engine.generation, ([], 0), cost=64)
        engine.index(make_log(1))
        engine.refresh()  # refresh hook -> shard invalidated (merge may follow)
        assert cache.get(engine.shard_id, "stmt:x", 0) is None

    def test_old_generation_remains_a_valid_key(self):
        """Generations gate nothing: an entry can be (re)stored under a past
        generation."""
        cache = ShardRequestCache(4096)
        cache.put(0, "stmt:x", 5, (["new"], 1), cost=64)
        cache.put(0, "stmt:x", 3, (["pinned"], 1), cost=64)
        assert cache.get(0, "stmt:x", 3) == (["pinned"], 1)
        assert cache.get(0, "stmt:x", 5) == (["new"], 1)


def engines_at(**generations):
    """Stand-ins for the live engines a result-cache probe reads: shard
    ``s<id>`` at the given read generation."""
    return {int(name[1:]): SimpleNamespace(generation=g) for name, g in generations.items()}


class TestCoordinatorResultCache:
    def test_hit_requires_matching_generations(self):
        cache = CoordinatorResultCache(4096)
        result = object()
        cache.put("sql:q", 0, result, validators=((0, 1), (1, 2)), cost=64)
        engines = engines_at(s0=1, s1=2)
        assert cache.get("sql:q", 0, engines) is result
        engines[1].generation = 3  # shard 1 refreshed since
        assert cache.get("sql:q", 0, engines) is None
        # The stale entry was dropped, not just skipped.
        assert cache.stats.invalidations == 1
        assert len(cache) == 0 and cache.stats.bytes == 0

    def test_rule_version_is_part_of_the_key(self):
        cache = CoordinatorResultCache(4096)
        result = object()
        cache.put("sql:q", 0, result, validators=(), cost=64)
        assert cache.get("sql:q", 1, {}) is None
        assert cache.get("sql:q", 0, {}) is result

    def test_stale_lookup_counts_as_miss_not_hit(self):
        cache = CoordinatorResultCache(4096)
        cache.put("sql:q", 0, object(), validators=((0, 1),), cost=64)
        cache.get("sql:q", 0, engines_at(s0=99))
        assert cache.stats.hits == 0
        assert cache.stats.misses == 1

    def test_hit_refreshes_recency(self):
        cache = CoordinatorResultCache(4096)
        for name in ("sql:a", "sql:b"):
            cache.put(name, 0, name, validators=(), cost=64)
        cache.get("sql:a", 0, {})
        assert cache._lru.keys() == [("sql:b", 0), ("sql:a", 0)]


class TestCacheSwitch:
    def test_default_builds_every_level(self):
        db = ESDB(EsdbConfig())
        assert db.result_cache is not None and db.request_cache is not None
        for engine in db.engines.values():
            assert engine.filter_cache._lru.max_bytes == FILTER_CACHE_BYTES

    def test_cat_caches_reads_the_switch(self):
        from repro.obsv import cat_caches

        for cache, shown in ((True, "on"), (False, "off")):
            rows = cat_caches(ESDB(EsdbConfig(cache=cache))).to_dicts()
            assert {row["level"]: row["enabled"] for row in rows} == {
                "filter": shown, "request": shown, "result": shown, "shapes": "on",
            }

    def test_request_and_result_budgets_are_fixed(self):
        from repro.cache import REQUEST_CACHE_BYTES, RESULT_CACHE_BYTES

        db = ESDB(EsdbConfig())
        assert db.request_cache._lru.max_bytes == REQUEST_CACHE_BYTES == 8 << 20
        assert db.result_cache._lru.max_bytes == RESULT_CACHE_BYTES == 8 << 20
        assert FILTER_CACHE_BYTES == 4 << 20

    def test_off_builds_no_level(self):
        db = ESDB(EsdbConfig(cache=False))
        assert db.result_cache is None and db.request_cache is None
        assert all(engine.filter_cache is None for engine in db.engines.values())


class TestEngineFilterCache:
    def test_repeated_term_lookup_hits(self, engine):
        for i in range(4):
            engine.index(make_log(i, status=1))
        engine.refresh()
        first = engine.term_postings("status", 1)
        engine.term_postings("status", 1)  # the second sighting stores
        before = engine.filter_cache.stats.hits
        third = engine.term_postings("status", 1)
        assert engine.filter_cache.stats.hits > before
        assert list(first) == list(third)

    def test_delete_invalidates_and_stays_correct(self, engine):
        for i in range(4):
            engine.index(make_log(i, status=1))
        engine.refresh()
        assert len(engine.term_postings("status", 1)) == 4
        generation = engine.generation
        engine.delete(2)
        assert engine.generation > generation
        assert len(engine.term_postings("status", 1)) == 3

    def test_refresh_adds_segment_without_invalidating_old(self, engine):
        engine.index(make_log(1, status=1))
        engine.refresh()
        engine.term_postings("status", 1)
        engine.term_postings("status", 1)
        hits_before = engine.filter_cache.stats.hits
        engine.index(make_log(2, status=1))
        engine.refresh()
        # Old segment's list is still served from cache; only the new
        # segment computes.
        assert len(engine.term_postings("status", 1)) == 2
        assert engine.filter_cache.stats.hits > hits_before

    def test_disabled_via_config(self, schema):
        engine = ShardEngine(EngineConfig(schema=schema, filter_cache_bytes=None))
        assert engine.filter_cache is None
        engine.index(make_log(1, status=1))
        engine.refresh()
        assert len(engine.term_postings("status", 1)) == 1

    def test_buffered_writes_do_not_bump_generation(self, schema):
        engine = ShardEngine(EngineConfig(schema=schema, auto_refresh_every=None))
        generation = engine.generation
        engine.index(make_log(1))
        assert engine.generation == generation  # not searchable yet
        engine.refresh()
        assert engine.generation == generation + 1

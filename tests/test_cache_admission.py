"""Admission: a statement or filter seen once never displaces a cached entry.

The coordinator asks the request level's doorkeeper once per fan-out, and
that one answer gates all three levels for a statement's first sighting:
no shard is probed (unless the identity still holds live entries), no
subquery is stored, and a result is stored only into free budget. A shard
stores a filter's postings from the filter's second sighting on. These
tests count the calls a first sighting still makes and hold the cached
answers to those of an instance with every cache off.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import ESDB, EsdbConfig
from repro.cache import (
    CoordinatorResultCache,
    LruCache,
    SegmentFilterCache,
    ShardRequestCache,
)
from repro.cache import lru as lru_module
from repro.cache.request_cache import SEEN_STATEMENTS
from repro.cluster import ClusterTopology
from repro.storage import ShardEngine
from tests.conftest import make_log

TOPOLOGY = ClusterTopology(num_nodes=3, num_shards=6)
COUNT = "SELECT COUNT(*) FROM t WHERE tenant_id = 't{}'"
WIDE = "SELECT * FROM t WHERE status = 1"  # every shard
#: Statements run on a 3,000-byte result level, and the (statement, cost)
#: of each result it handed the LRU when every miss was priced before the
#: level decided: the first sightings of statements 8 and 9 are refused
#: (9's by its floor alone), results of 12,776 bytes never fit.
SCRIPT = [COUNT.format(0), WIDE, COUNT.format(1), WIDE, COUNT.format(2), WIDE + " LIMIT 3",
          COUNT.format(2), WIDE + " LIMIT 3", COUNT.format(3), WIDE + " LIMIT 5",
          COUNT.format(0), WIDE]
STORED = [(0, 237), (2, 237), (1, 12776), (4, 237), (5, 2558), (0, 237), (1, 12776)]


def build_db(**kwargs) -> ESDB:
    db = ESDB(EsdbConfig(topology=TOPOLOGY, auto_refresh_every=None, **kwargs))
    for i in range(48):
        db.write(make_log(i, tenant=f"t{i % 4}", created=float(i), status=i % 3))
    db.refresh()
    return db


def counted(monkeypatch, obj, name: str) -> list:
    """Wrap *obj*'s method *name* to record each call; returns the record."""
    original = getattr(obj, name)
    calls = []

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(obj, name, wrapper)
    return calls


class TestResultLevel:
    def test_a_first_sighting_on_a_full_cache_evicts_nothing(self, monkeypatch):
        db = build_db()
        db.execute_sql(COUNT.format(0))
        cost = db.result_cache.stats.bytes
        # Room for two entries of equal cost (one count row each), not three.
        db.coordinator.result_cache = CoordinatorResultCache(
            2 * cost + cost // 2, metrics=db.telemetry.metrics
        )
        cache = db.result_cache
        db.execute_sql(COUNT.format(0))  # a repeat: stored
        db.execute_sql(COUNT.format(1))  # a first sighting that fits: stored
        assert (len(cache), cache.stats.evictions) == (2, 0)

        puts = counted(monkeypatch, cache._lru, "put")
        db.execute_sql(COUNT.format(2))  # a first sighting, no free room
        assert len(puts) == 0
        assert (len(cache), cache.stats.evictions) == (2, 0)

        db.execute_sql(COUNT.format(2))  # its repeat evicts the stalest: t0
        assert len(puts) == 1
        assert (len(cache), cache.stats.evictions) == (2, 1)
        hits = cache.stats.hits
        db.execute_sql(COUNT.format(1))
        db.execute_sql(COUNT.format(2))
        assert cache.stats.hits == hits + 2
        db.execute_sql(COUNT.format(0))
        assert cache.stats.hits == hits + 2


    def test_a_refused_first_sighting_is_not_priced(self, monkeypatch):
        db = build_db()
        # Less than any result's floor (56 bytes + 24 per row and per shard).
        db.coordinator.result_cache = CoordinatorResultCache(100, metrics=db.telemetry.metrics)
        priced = counted(monkeypatch, lru_module, "estimate_bytes")
        db.execute_sql(WIDE)
        assert priced == [] and len(db.result_cache) == 0
        db.execute_sql(WIDE)  # its repeat is priced, and too large to store
        assert priced and len(db.result_cache) == 0

    def test_what_is_stored_is_what_pricing_every_miss_stored(self, monkeypatch):
        """The floor refuses only what the full price refused: the keys
        and costs of :data:`SCRIPT` reach the LRU as :data:`STORED`."""
        db = build_db()
        db.coordinator.result_cache = CoordinatorResultCache(
            3000, metrics=db.telemetry.metrics
        )
        cache = db.result_cache
        stored = []
        put = cache._lru.put

        def recording(key, value, cost):
            sql = next(sql for sql, identity in db.coordinator._identities.items()
                       if identity == key[0])
            stored.append((SCRIPT.index(sql), cost))
            return put(key, value, cost=cost)

        monkeypatch.setattr(cache._lru, "put", recording)
        for sql in SCRIPT:
            db.execute_sql(sql)
        assert stored == STORED
        assert (len(cache), cache.stats.bytes, cache.stats.evictions) == (2, 2795, 3)



class TestRequestLevel:
    def test_a_first_sighting_probes_no_shard(self, monkeypatch):
        db = build_db()
        gets = counted(monkeypatch, db.request_cache, "get")
        result = db.execute_sql(WIDE)
        assert result.subqueries == TOPOLOGY.num_shards
        assert len(gets) == 0

    def test_a_forgotten_identity_is_probed_while_it_holds_entries(self, monkeypatch):
        db = build_db()
        db.coordinator.result_cache = None  # every repeat reaches the shards
        cache = db.request_cache
        for _ in range(2):  # the second sighting stores
            db.execute_sql(WIDE)
        assert cache.stats.insertions == TOPOLOGY.num_shards

        def forget():
            for i in range(SEEN_STATEMENTS):
                cache.admit(f"stmt:other{i}")

        forget()
        gets = counted(monkeypatch, cache, "get")
        db.execute_sql(WIDE)
        assert len(gets) == TOPOLOGY.num_shards
        assert cache.stats.hits == TOPOLOGY.num_shards

        db.refresh()
        for shard_id in db.engines:  # drops every entry of every shard
            cache.invalidate_shard(shard_id)
        forget()
        db.execute_sql(WIDE)
        assert len(gets) == TOPOLOGY.num_shards  # nothing left to probe

    def test_eviction_and_invalidation_release_the_identity(self):
        cache = ShardRequestCache(100)
        cache.put(0, "sql:a", 1, ([], 0), cost=60)
        cache.put(1, "sql:b", 1, ([], 0), cost=60)  # evicts sql:a
        assert not cache.holds("sql:a") and cache.holds("sql:b")
        cache.invalidate_shard(1)
        assert not cache.holds("sql:b")


class TestFilterLevel:
    def test_postings_are_stored_from_the_second_sighting_on(
        self, engine_config, monkeypatch
    ):
        engines = [ShardEngine(engine_config, shard_id=i) for i in range(2)]
        for engine in engines:
            for i in range(4):
                engine.index(make_log(i, status=1))
            engine.refresh()
        first, other = engines
        puts = counted(monkeypatch, first.filter_cache, "put")
        first.term_postings("status", 1)
        assert len(puts) == 0 and len(first.filter_cache) == 0
        first.term_postings("status", 1)
        assert len(puts) == len(first.segments)
        # The doorkeeper is per shard: another shard's first sighting of
        # the same filter stores nothing.
        other.term_postings("status", 1)
        assert len(other.filter_cache) == 0


# -- caches on vs off, under small budgets --------------------------------------

REPEATED = (
    "SELECT * FROM t WHERE tenant_id = 't1' AND status = 1",
    "SELECT COUNT(*) FROM t WHERE tenant_id = 't2'",
    "SELECT * FROM t WHERE status = 2",
    "SELECT status, COUNT(*) FROM t GROUP BY status",
    "SELECT * FROM t WHERE tenant_id = 't0' ORDER BY created_time DESC LIMIT 5",
    "SELECT * FROM t WHERE created_time >= 30 LIMIT 4",
    "SELECT * FROM t WHERE MATCH(auction_title, 'cotton shirt') LIMIT 3",
)

repeat = st.tuples(st.just("repeat"), st.sampled_from(REPEATED))
# Distinct texts whose time filters recur.
first = st.tuples(st.just("first"), st.sampled_from((0, 10, 25, 40)), st.integers(1, 10_000))
operations = st.lists(
    st.one_of(  # queries listed more than once: most steps are queries
        repeat,
        repeat,
        repeat,
        first,
        first,
        # A write, and whether to refresh the one shard it landed on.
        st.tuples(st.just("write"), st.integers(0, 3), st.integers(0, 2), st.booleans()),
        st.tuples(st.just("refresh")),
        st.tuples(st.just("delete"), st.integers(0, 47)),  # a preloaded row
        st.tuples(st.just("rule"), st.integers(0, 3)),
    ),
    min_size=10,
    max_size=40,
)


def shrink_caches(db: ESDB) -> list[LruCache]:
    """Give every level of *db* a budget a few entries fill; returns their
    LRU cores."""
    coordinator = db.coordinator
    metrics = db.telemetry.metrics
    coordinator.result_cache = CoordinatorResultCache(20_000, metrics=metrics)
    coordinator.request_cache = ShardRequestCache(16_000, metrics=metrics)
    for engine in db.engines.values():
        coordinator.request_cache.attach(engine)
        engine.filter_cache = SegmentFilterCache(300, metrics=metrics)
    return [
        coordinator.result_cache._lru,
        coordinator.request_cache._lru,
        *(engine.filter_cache._lru for engine in db.engines.values()),
    ]


def answer(db: ESDB, sql: str) -> tuple:
    result = db.execute_sql(sql)
    return sorted(repr(sorted(row.items(), key=str)) for row in result.rows), result.total_hits


class TestParityUnderAdmission:
    """Repeats, first sightings, writes, refreshes (whole or one shard),
    deletes and one committed rule, against a ``cache=False`` twin."""

    @settings(
        max_examples=50,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(operations)
    def test_answers_equal_an_uncached_twin(self, ops):
        cached, uncached = build_db(), build_db(cache=False)
        levels = shrink_caches(cached)
        written, ruled, deleted = 0, False, set()
        for op in ops:
            kind = op[0]
            if kind == "delete":
                if op[1] not in deleted:
                    deleted.add(op[1])
                    for db in (cached, uncached):
                        db.delete(op[1], tenant_id=f"t{op[1] % 4}", created_time=float(op[1]))
                continue
            if kind == "rule":
                if ruled:
                    continue
                ruled = True
                for db in (cached, uncached):
                    db.policy.rules.update(100.5 + written, 4, f"t{op[1]}")
                continue
            if kind == "write":
                written += 1
                doc = make_log(1000 + written, tenant=f"t{op[1]}",
                               created=100.0 + written, status=op[2])
                for db in (cached, uncached):
                    shard = db.write(dict(doc))
                    if op[3]:
                        db.engines[shard].refresh()
                continue
            if kind == "refresh":
                for db in (cached, uncached):
                    db.refresh()
                continue
            sql = op[1] if kind == "repeat" else (
                f"SELECT * FROM t WHERE created_time >= {op[1]} LIMIT {op[2]}"
            )
            assert answer(cached, sql) == answer(uncached, sql)
            for lru in levels:
                assert lru.stats.bytes <= lru.max_bytes

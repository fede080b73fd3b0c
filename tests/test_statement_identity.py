"""A statement text has one identity, and both statement caches key on it.

The facade digests a SQL text once per distinct text (a bounded memo), the
coordinator result cache keys on ``(identity, rule version)`` and the shard
request cache on ``(shard, identity, generation)``. These tests count the
work a repeat still does, check which texts share a key, and hold the
cached answers to those of an instance with every cache off.
"""

from __future__ import annotations

import sys
import threading
from collections import OrderedDict

import pytest

from repro import ESDB, EsdbConfig
from repro.cache import fingerprint
from repro.cache.fingerprint import SQL_IDENTITIES, sql_fingerprint
from repro.cluster import ClusterTopology
from tests.conftest import make_log

TOPOLOGY = ClusterTopology(num_nodes=3, num_shards=6)
QUERY = "SELECT * FROM t WHERE tenant_id = 't1' AND status = 1"


def build_db(**kwargs) -> ESDB:
    db = ESDB(EsdbConfig(topology=TOPOLOGY, auto_refresh_every=None, **kwargs))
    for i in range(48):
        db.write(make_log(i, tenant=f"t{i % 4}", created=float(i), status=i % 3))
    db.refresh()
    return db


def count_calls(monkeypatch, module, name: str) -> list:
    """Replace *module*'s function *name* in every ``repro`` module that
    holds it with a wrapper that counts its calls; returns the count list
    (one entry per call)."""
    original = getattr(module, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module_name, loaded in list(sys.modules.items()):
        if module_name.split(".")[0] == "repro" and vars(loaded).get(name) is original:
            monkeypatch.setattr(loaded, name, counted)
    return calls


class TestWorkGuard:
    """Work a repeat must not redo, counted call by call."""

    def test_repeated_text_is_normalized_and_digested_once(self, monkeypatch):
        db = build_db()
        normalized = count_calls(monkeypatch, fingerprint, "normalize_sql")
        digested = count_calls(monkeypatch, fingerprint, "_digest")
        sql = QUERY.replace("status = 1", "status = 2")
        for _ in range(100):
            db.execute_sql(sql)
        assert len(normalized) == 1
        assert len(digested) == 1
        assert db.result_cache.stats.hits == 99

    def test_result_cache_hit_lifts_parses_and_digests_nothing(self, monkeypatch):
        from repro.query import shapes, sql_parser

        db = build_db()
        db.execute_sql(QUERY)
        work = [
            count_calls(monkeypatch, shapes, "lift"),
            count_calls(monkeypatch, sql_parser, "parse_sql"),
            count_calls(monkeypatch, fingerprint, "normalize_sql"),
            count_calls(monkeypatch, fingerprint, "_digest"),
        ]
        db.execute_sql(QUERY)
        assert db.result_cache.stats.hits == 1
        assert [len(calls) for calls in work] == [0, 0, 0, 0]

    def test_cold_fanout_digests_no_statement(self, monkeypatch):
        db = build_db()
        digests = count_calls(monkeypatch, fingerprint, "statement_fingerprint")
        result = db.execute_sql("SELECT * FROM t WHERE status = 1")  # every shard
        assert result.subqueries == TOPOLOGY.num_shards
        assert digests == []


class TestIdentityMemo:
    def test_memo_keeps_the_newest_texts(self):
        identities = OrderedDict()
        first = sql_fingerprint("SELECT 0", identities)
        for i in range(1, SQL_IDENTITIES + 1):
            sql_fingerprint(f"SELECT {i}", identities)
        assert len(identities) == SQL_IDENTITIES
        assert "SELECT 0" not in identities  # the oldest went
        assert sql_fingerprint("SELECT 0", identities) == first == sql_fingerprint("SELECT 0")

    def test_memo_shared_by_threads_stays_bounded_and_exact(self, monkeypatch):
        monkeypatch.setattr(fingerprint, "SQL_IDENTITIES", 64)
        texts = [f"SELECT * FROM t WHERE  status = {i}" for i in range(200)]
        expected = {sql: sql_fingerprint(sql) for sql in texts}
        identities = OrderedDict()
        wrong, errors = [], []

        def work(offset):
            try:
                for i in range(3000):
                    sql = texts[(offset + i * 7) % len(texts)]
                    if sql_fingerprint(sql, identities) != expected[sql]:
                        wrong.append(sql)
            except Exception as exc:  # reported below, not swallowed
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(n,)) for n in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == [] and wrong == []
        assert len(identities) <= 64

    def test_memo_answer_equals_the_digest(self):
        identities = OrderedDict()
        for _ in range(2):
            assert sql_fingerprint(QUERY, identities) == sql_fingerprint(QUERY)
        assert list(identities) == [QUERY]


class TestKeyEquivalence:
    """Texts that differ only in whitespace outside literals are one
    statement to both caches; a literal's case or spacing is not."""

    SPACED = QUERY.replace(" AND ", "  AND\n\t").replace("SELECT *", "SELECT   *")

    def identities_in_request_cache(self, db) -> set:
        return {identity for _, identity, _ in db.request_cache._lru.keys()}

    def test_whitespace_variants_share_one_result_entry(self):
        db = build_db()
        first = db.execute_sql(QUERY)
        second = db.execute_sql(self.SPACED)
        assert len(db.result_cache) == 1
        assert db.result_cache.stats.hits == 1
        assert second.rows == first.rows

    def test_whitespace_variants_share_one_request_key(self):
        db = build_db()
        db.coordinator.result_cache = None  # every repeat reaches the shards
        stats = db.request_cache.stats
        shards = db.execute_sql(QUERY).subqueries
        db.execute_sql(self.SPACED)  # the second sighting of one statement
        assert stats.insertions == shards
        db.execute_sql(" " + QUERY + "\n")
        assert stats.hits == shards
        assert self.identities_in_request_cache(db) == {sql_fingerprint(QUERY)}

    @pytest.mark.parametrize("left, right", [("'A'", "'a'"), ("'a  b'", "'a b'")])
    def test_literal_case_or_spacing_keeps_statements_apart(self, left, right):
        template = "SELECT * FROM t WHERE tenant_id = 't1' AND status = {}"
        db = build_db()
        for literal in (left, right):
            db.execute_sql(template.format(literal))
        assert len(db.result_cache) == 2
        assert db.result_cache.stats.hits == 0

        db = build_db()
        db.coordinator.result_cache = None
        for literal in (left, right):
            db.execute_sql(template.format(literal))
        assert db.request_cache.stats.insertions == 0  # neither seen twice
        db.execute_sql(template.format(right))
        assert len(self.identities_in_request_cache(db)) == 1


class TestParityWithUncachedTwin:
    """Answers through the caches equal those of a ``cache=False`` twin
    while data, routing and the serving engine change under them."""

    STATEMENTS = (
        QUERY,
        "SELECT * FROM t WHERE status = 2",
        "SELECT COUNT(*) FROM t WHERE tenant_id = 't2'",
        "SELECT * FROM t WHERE tenant_id = 't0' ORDER BY created_time DESC LIMIT 5",
        "SELECT status, COUNT(*) FROM t GROUP BY status",
    )

    @staticmethod
    def answers(db) -> list:
        out = []
        for sql in TestParityWithUncachedTwin.STATEMENTS:
            result = db.execute_sql(sql)
            rows = sorted(repr(sorted(row.items(), key=str)) for row in result.rows)
            out.append((rows, result.total_hits))
        return out

    def assert_parity(self, cached, uncached, passes: int = 3):
        # Three passes: a miss, the pass that stores request entries, a hit.
        for _ in range(passes):
            assert self.answers(cached) == self.answers(uncached)

    def test_parity_across_refresh_rule_commit_and_failover(self):
        cached = build_db(replication="physical")
        uncached = build_db(replication="physical", cache=False)
        self.assert_parity(cached, uncached)
        assert cached.result_cache.stats.hits > 0

        # A shard refresh: the written shard's generation moves.
        for db in (cached, uncached):
            shard = db.write(make_log(500, tenant="t1", created=500.0, status=1))
            db.engines[shard].refresh()
        self.assert_parity(cached, uncached)

        # A rule commit widens t1's fan-out; new writes land under it.
        for db in (cached, uncached):
            db.policy.rules.update(600.0, 4, "t1")
            for i in range(8):
                db.write(make_log(600 + i, tenant="t1", created=700.0 + i, status=1))
            db.refresh()
        self.assert_parity(cached, uncached)

        # Failover: the promoted replica replaces a primary's engine.
        for db in (cached, uncached):
            db.replicate()
            db.write(make_log(900, tenant="t1", created=900.0, status=1))
            for shard_id in sorted(db.replica_sets):
                db.fail_primary(shard_id)
            db.refresh()
        self.assert_parity(cached, uncached)
        assert cached.request_cache.stats.hits > 0

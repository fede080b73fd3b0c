"""Tests for LIMIT / ORDER BY top-k pushdown to shards.

§2.2 motivates this: "Some operations, such as sort and top-k, are much
more time-consuming once the data is stored in a distributed manner." The
pushdown bounds per-shard fetches at LIMIT while keeping results and
``total_hits`` identical to the unpushed plan.
"""

from __future__ import annotations

import pytest

from repro import ESDB, EsdbConfig
from repro.cluster import ClusterTopology
from repro.routing import DoubleHashRouting
from repro.storage import PostingList
from tests.conftest import make_log

SMALL = ClusterTopology(num_nodes=2, num_shards=8)


@pytest.fixture()
def spread_db():
    """Tenant data spread over 4 shards so pushdown matters."""
    db = ESDB(
        EsdbConfig(topology=SMALL, auto_refresh_every=None),
        policy=DoubleHashRouting(8, offset=4),
    )
    for i in range(200):
        db.write(make_log(i, tenant="t", created=float(i), status=i % 2, amount=float(i)))
    db.refresh()
    return db


def _total_fetched(db: ESDB) -> int:
    return sum(e.stats.docs_fetched for e in db.engines.values())


class TestEngineTopK:
    def test_top_k_selects_smallest_ascending(self, engine):
        for i in range(20):
            engine.index(make_log(i, created=float(19 - i)))
        engine.refresh()
        rows = PostingList(range(20))
        top = engine.top_k(rows, "created_time", 3)
        values = sorted(doc["created_time"] for doc in engine.fetch(top))
        assert values == [0.0, 1.0, 2.0]

    def test_top_k_descending(self, engine):
        for i in range(10):
            engine.index(make_log(i, created=float(i)))
        engine.refresh()
        top = engine.top_k(PostingList(range(10)), "created_time", 2, descending=True)
        values = {doc["created_time"] for doc in engine.fetch(top)}
        assert values == {8.0, 9.0}

    def test_top_k_noop_when_k_covers_rows(self, engine):
        engine.index(make_log(1, created=1.0))
        engine.refresh()
        rows = PostingList([0])
        assert engine.top_k(rows, "created_time", 5) == rows

    def test_top_k_ranks_rows_across_segments(self, engine):
        for i in range(6):
            engine.index(make_log(i, created=float(i)))
            if i % 2:
                engine.refresh()  # three segments of two rows each
        assert engine.segment_count() >= 2
        top = engine.top_k(PostingList(range(6)), "created_time", 3, descending=True)
        assert sorted(doc["created_time"] for doc in engine.fetch(top)) == [3.0, 4.0, 5.0]

    def test_descending_top_k_ranks_rows_lacking_the_column_last(self, engine):
        for i in range(6):
            extra = {"amount": float(i)} if i < 3 else {}
            engine.index(make_log(i, **extra))
        engine.refresh()
        top = engine.top_k(PostingList(range(6)), "amount", 3, descending=True)
        assert list(top) == [0, 1, 2]  # the rows holding an amount


class TestFacadePushdown:
    def test_results_identical_with_pushdown(self, spread_db):
        # The pushdown is always on for plain LIMIT queries; compare against
        # a logically equivalent query evaluated without LIMIT.
        limited = spread_db.execute_sql(
            "SELECT transaction_id FROM t WHERE tenant_id = 't' "
            "ORDER BY created_time DESC LIMIT 5"
        )
        full = spread_db.execute_sql(
            "SELECT transaction_id FROM t WHERE tenant_id = 't' "
            "ORDER BY created_time DESC"
        )
        assert list(limited.rows) == list(full.rows[:5])

    def test_total_hits_remains_exact(self, spread_db):
        result = spread_db.execute_sql(
            "SELECT * FROM t WHERE tenant_id = 't' ORDER BY created_time LIMIT 3"
        )
        assert result.total_hits == 200
        assert len(result.rows) == 3

    def test_pushdown_bounds_fetched_docs(self, spread_db):
        before = _total_fetched(spread_db)
        spread_db.execute_sql(
            "SELECT * FROM t WHERE tenant_id = 't' ORDER BY created_time LIMIT 5"
        )
        fetched = _total_fetched(spread_db) - before
        # 4 shards x at most 5 docs each, instead of 200.
        assert fetched <= 20

    def test_no_order_by_limit_also_bounded(self, spread_db):
        before = _total_fetched(spread_db)
        result = spread_db.execute_sql(
            "SELECT * FROM t WHERE tenant_id = 't' LIMIT 7"
        )
        fetched = _total_fetched(spread_db) - before
        assert len(result.rows) == 7
        assert fetched <= 28

    def test_aggregates_not_truncated_by_pushdown(self, spread_db):
        result = spread_db.execute_sql(
            "SELECT COUNT(*) FROM t WHERE tenant_id = 't' LIMIT 1"
        )
        assert result.scalar() == 200

    def test_global_order_correct_across_shards(self, spread_db):
        result = spread_db.execute_sql(
            "SELECT amount FROM t WHERE tenant_id = 't' ORDER BY amount DESC LIMIT 4"
        )
        assert [r["amount"] for r in result.rows] == [199.0, 198.0, 197.0, 196.0]

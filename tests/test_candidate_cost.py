"""Counts, not clocks: a cold shard subquery costs what its candidate rows
cost — not what the shard holds, not what its result weighs.

Each test counts work (intermediate postings, ``estimate_bytes`` calls) and
asserts that it does not grow with the thing it must not depend on.
"""

from __future__ import annotations

import pytest

from repro import ESDB, EsdbConfig
from repro.cache import lru
from repro.errors import StorageError
from repro.query import QueryExecutor, RuleBasedOptimizer, Xdriver4ES, parse_sql
from repro.query.optimizer import CatalogInfo
from repro.storage import PostingList, ShardEngine
from repro.storage.segment import Segment
from tests.conftest import make_log

FIG17_TEMPLATE = (
    "SELECT * FROM t WHERE tenant_id = 'hot' "
    "AND created_time BETWEEN 10 AND 29 AND group >= 3"
)


def _count_calls(monkeypatch, owner, name) -> list:
    """Replace ``owner.name`` by a counting pass-through; returns the call log."""
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


class TestScanOverCandidates:
    def _execute(self, engine, engine_config):
        catalog = CatalogInfo(
            schema=engine_config.schema,
            composite_indexes=engine_config.composite_columns,
            scan_columns=engine_config.scan_columns,
        )
        statement = Xdriver4ES().translate(parse_sql(FIG17_TEMPLATE)).statement
        plan = RuleBasedOptimizer(catalog).plan(statement)
        rows, trace = QueryExecutor(engine).execute(plan)
        return rows, trace

    def test_postings_follow_the_tenant_not_the_shard(self, engine, engine_config):
        for i in range(40):
            engine.index(make_log(i, tenant="hot", created=float(i), group=i % 6))
        for i in range(40, 100):
            engine.index(make_log(i, tenant=f"cold{i % 7}", created=float(i % 40), group=i % 6))
        engine.refresh()
        rows, trace = self._execute(engine, engine_config)
        composite_rows = dict(trace.steps)["CompositeSearch"]
        assert composite_rows == 20 and 0 < len(rows) < composite_rows
        # the composite search's rows, then at most that many again per scan
        assert trace.total_postings <= 2 * composite_rows

        # ten times the shard, all of it other tenants' documents
        for i in range(100, 1000):
            engine.index(make_log(i, tenant=f"cold{i % 7}", created=float(i % 40), group=i % 6))
            if i % 300 == 0:
                engine.refresh()
        engine.refresh()
        rows_after, trace_after = self._execute(engine, engine_config)
        assert rows_after == rows
        assert trace_after.steps == trace.steps


class TestCacheAdmission:
    def test_pricing_a_statement_for_the_caches_does_not_grow_with_its_rows(self, monkeypatch):
        """A statement's second sighting fills the request cache (one shard)
        and the result cache; each prices its entry from the row count and
        one row."""
        db = ESDB(EsdbConfig())
        db.bulk_write([make_log(i, tenant=1, created=float(i)) for i in range(1000)])
        db.refresh()
        calls = _count_calls(monkeypatch, lru, "estimate_bytes")
        per_statement, cached_bytes = [], []
        for count in (1, 10, 1000):
            sql = f"SELECT * FROM t WHERE tenant_id = 1 AND created_time < {count}"
            db.execute_sql(sql)  # the first sighting: the request cache stores nothing
            db.result_cache.clear()
            before = len(calls)
            result = db.execute_sql(sql)
            assert len(result.rows) == count
            per_statement.append(len(calls) - before)
            cached_bytes.append(db.request_cache.stats.bytes + db.result_cache.stats.bytes)
        assert db.request_cache.stats.insertions == 3
        assert db.result_cache.stats.insertions == 6
        assert per_statement[0] == per_statement[1] == per_statement[2] > 0
        # ...while the price itself still does: budgets stay meaningful
        assert cached_bytes[2] - cached_bytes[1] > 2 * 1000 * 100

    def test_an_empty_result_is_priced_without_a_walk(self, monkeypatch):
        calls = _count_calls(monkeypatch, lru, "estimate_bytes")
        assert lru.rows_cost([]) > 0 and not calls


class TestBlockLiveness:
    def _segment(self, engine, docs=50) -> Segment:
        for i in range(docs):
            engine.index(make_log(i))
        return engine.refresh()

    def test_filter_live_without_deletes_is_one_counter_check(self, engine):
        segment = self._segment(engine)
        rows = PostingList(range(0, 50, 2))
        assert segment.filter_live(rows) is rows
        assert engine.term_postings("tenant_id", "t1") == PostingList(range(50))

    def test_filter_live_with_deletes_filters_without_per_row_calls(self, engine):
        segment = self._segment(engine)
        for doc_id in (4, 10, 11):
            engine.delete(doc_id)
        assert (len(segment), segment.live_count) == (50, 47)
        kept = segment.filter_live(PostingList(range(0, 50, 2)))
        assert list(kept) == [r for r in range(0, 50, 2) if r not in (4, 10)]

    def test_filter_live_refuses_rows_outside_the_segment(self, engine):
        """Below the base a negative index would wrap, past the end it would
        raise IndexError, and with no deletes both would come back as live."""
        self._segment(engine, docs=5)  # rows 0..4
        for i in range(100, 110):
            engine.index(make_log(i))
        segment = engine.refresh()  # rows 5..14
        assert (segment.base_row_id, len(segment)) == (5, 10)
        for expected in ([5, 6, 14], [5, 14]):  # without deletes, then with one
            for rows in ([4, 5], [14, 15], [0], [99]):
                with pytest.raises(StorageError):
                    segment.filter_live(PostingList(rows))
            assert list(segment.filter_live(PostingList([5, 6, 14]))) == expected
            segment.mark_deleted(6)

    def test_delete_counter_counts_each_row_once(self, engine):
        segment = self._segment(engine, docs=5)
        assert segment.mark_deleted(2) is True
        assert segment.mark_deleted(2) is False  # already dead
        assert segment.mark_deleted(99) is False  # not this segment's row
        assert (len(segment), segment.live_count) == (5, 4)
        assert engine.doc_count() == 4


class TestOverlappingSegmentRanges:
    """Merging non-adjacent segments pads the gaps with tombstones, so the
    merged segment's row range covers its neighbours'. Every row still has
    exactly one segment it is live in, and that one answers for it."""

    def _engine(self, engine_config) -> ShardEngine:
        engine = ShardEngine(engine_config)
        doc_id = 0
        for batch in (3, 20, 3, 20, 3, 20, 3):  # the four 3s merge around the 20s
            for _ in range(batch):
                engine.index(make_log(doc_id, created=float(doc_id), quantity=doc_id))
                doc_id += 1
            engine.refresh()
        spans = sorted((s.base_row_id, s.base_row_id + len(s)) for s in engine.segments)
        assert any(a_end > b_start for (_, a_end), (b_start, _) in zip(spans, spans[1:]))
        return engine

    def test_scan_and_top_k_read_the_live_segment(self, engine_config):
        engine = self._engine(engine_config)
        every = PostingList(range(72))
        assert engine.scan_filter("quantity", every, lambda v: v is not None) == every
        assert engine.scan_filter("quantity", every, lambda v: v is None) == PostingList.empty()
        top = engine.top_k(PostingList([1, 5, 24, 30, 50, 71]), "quantity", 3, descending=True)
        assert list(top) == [30, 50, 71]

    def test_dynamic_composite_search_keeps_only_searchable_live_rows(self, engine_config):
        engine = self._engine(engine_config)
        engine.add_composite_index(("status", "created_time"))
        engine.delete(5)  # sealed and now dead; the dynamic index still lists it
        engine.index(make_log(100, created=100.0))  # buffered: not searchable yet
        found = engine.composite_search("status_created_time", {"status": 1})
        assert list(found) == [row for row in range(72) if row != 5]

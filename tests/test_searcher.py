"""Tests for point-in-time searchers."""

from __future__ import annotations

import pytest

from repro.errors import StorageError
from tests.conftest import make_log


class TestPointInTime:
    def test_searcher_unaffected_by_later_writes(self, engine):
        for i in range(5):
            engine.index(make_log(i, status=1))
        engine.refresh()
        searcher = engine.acquire_searcher()
        for i in range(5, 10):
            engine.index(make_log(i, status=1))
        engine.refresh()
        assert searcher.doc_count() == 5
        assert engine.doc_count() == 10
        assert len(searcher.term_postings("status", 1)) == 5

    def test_searcher_unaffected_by_merge(self, engine_config):
        from dataclasses import replace

        from repro.storage import ShardEngine, TieredMergePolicy

        config = replace(engine_config, auto_refresh_every=None)
        engine = ShardEngine(config, merge_policy=TieredMergePolicy(merge_factor=2))
        engine.index(make_log(1, status=1))
        engine.refresh()
        searcher = engine.acquire_searcher()
        pinned_segments = searcher.segment_count
        engine.index(make_log(2, status=1))
        engine.refresh()  # triggers a merge replacing the pinned segment
        assert engine.stats.merges == 1
        # The searcher still answers from its pinned (pre-merge) segments.
        assert searcher.segment_count == pinned_segments
        assert searcher.doc_count() == 1
        rows = searcher.term_postings("status", 1)
        assert [d.doc_id for d in searcher.fetch(rows)] == [1]

    def test_deletes_visible_through_open_searcher(self, engine):
        """Lucene semantics: live-bitmap changes on pinned segments show."""
        engine.index(make_log(1, status=1))
        engine.index(make_log(2, status=1))
        engine.refresh()
        searcher = engine.acquire_searcher()
        engine.delete(1)
        assert searcher.doc_count() == 1
        assert len(searcher.term_postings("status", 1)) == 1

    def test_buffer_not_visible(self, engine):
        engine.index(make_log(1))
        searcher = engine.acquire_searcher()  # before any refresh
        assert searcher.doc_count() == 0

    def test_closed_searcher_rejects_reads(self, engine):
        engine.index(make_log(1))
        engine.refresh()
        searcher = engine.acquire_searcher()
        searcher.close()
        with pytest.raises(StorageError):
            searcher.doc_count()

    def test_context_manager(self, engine):
        engine.index(make_log(1, created=7.0))
        engine.refresh()
        with engine.acquire_searcher() as searcher:
            assert searcher.numeric_range("created_time", 7, 7).to_list()
        with pytest.raises(StorageError):
            searcher.doc_count()

    def test_generation_tracks_refreshes(self, engine):
        engine.index(make_log(1))
        engine.refresh()
        first = engine.acquire_searcher()
        engine.index(make_log(2))
        engine.refresh()
        second = engine.acquire_searcher()
        assert second.generation > first.generation

    def test_text_search_through_searcher(self, engine):
        engine.index(make_log(1, title="vintage leather satchel"))
        engine.refresh()
        searcher = engine.acquire_searcher()
        assert len(searcher.text_postings("auction_title", "leather satchel")) == 1


class TestLifecycleEdges:
    def test_every_read_method_rejects_after_close(self, engine):
        engine.index(make_log(1, status=1, created=5.0))
        engine.refresh()
        searcher = engine.acquire_searcher()
        searcher.close()
        assert searcher.closed
        for call in (
            lambda: searcher.doc_count(),
            lambda: searcher.segment_count,
            lambda: searcher.term_postings("status", 1),
            lambda: searcher.text_postings("auction_title", "red"),
            lambda: searcher.numeric_range("created_time", 0, 10),
            lambda: searcher.fetch([]),
        ):
            with pytest.raises(StorageError):
                call()

    def test_close_is_idempotent(self, engine):
        searcher = engine.acquire_searcher()
        searcher.close()
        searcher.close()
        assert searcher.closed

    def test_generation_stable_across_concurrent_refresh(self, engine):
        """An open searcher's generation never moves, so it stays usable as
        a shard-request-cache key while the engine refreshes underneath."""
        from repro.cache import ShardRequestCache, rows_cost

        for i in range(3):
            engine.index(make_log(i, status=1))
        engine.refresh()
        searcher = engine.acquire_searcher()
        pinned = searcher.generation
        cache = ShardRequestCache(4096)
        rows = [d.doc_id for d in searcher.fetch(searcher.term_postings("status", 1))]
        cache.put(engine.shard_id, "stmt:q", pinned, (rows, len(rows)), cost=rows_cost(rows))
        # Concurrent refreshes move the engine's generation but not the
        # searcher's; the cached point-in-time entry stays addressable.
        for i in range(3, 6):
            engine.index(make_log(i, status=1))
            engine.refresh()
        assert searcher.generation == pinned
        assert engine.generation > pinned
        assert cache.get(engine.shard_id, "stmt:q", pinned) == (rows, len(rows))
        # A query against the live engine keys under the new generation and
        # misses — it must recompute rather than see the stale snapshot.
        assert cache.get(engine.shard_id, "stmt:q", engine.generation) is None
        assert searcher.doc_count() == 3

"""Systematic error-path and edge-case coverage across modules.

These tests pin down the failure behaviour a downstream user relies on:
precise exception types, no silent corruption, sane handling of empty and
degenerate inputs.
"""

from __future__ import annotations

import pytest

from repro.errors import (
    InvalidDocumentError,
    PlanningError,
    QueryError,
    RoutingError,
    SqlSyntaxError,
    StorageError,
    UnsupportedSqlError,
)
from repro.query import parse_sql
from repro.query.executor import QueryExecutor, _like_to_regex
from repro.query.planner import PhysicalPlan, PlanNode
from repro.routing import DoubleHashRouting, HashRouting
from repro.storage import PostingList, ShardEngine, SortedIndex
from tests.conftest import make_log


class TestErrorHierarchy:
    def test_all_errors_derive_from_esdb_error(self):
        from repro import errors

        base = errors.EsdbError
        for name in dir(errors):
            obj = getattr(errors, name)
            if isinstance(obj, type) and issubclass(obj, Exception) and obj is not base:
                assert issubclass(obj, base), name

    def test_specific_parents(self):
        from repro.errors import (
            ConsensusAborted,
            ConsensusError,
            RuleMatchError,
            TranslogCorruptionError,
        )

        assert issubclass(ConsensusAborted, ConsensusError)
        assert issubclass(RuleMatchError, RoutingError)
        assert issubclass(TranslogCorruptionError, StorageError)


class TestDegenerateTopologies:
    def test_single_shard_cluster_works(self):
        policy = HashRouting(1)
        assert policy.route_write("any", 123) == 0
        assert list(policy.query_shards("any")) == [0]

    def test_double_hash_full_spread_single_shard(self):
        policy = DoubleHashRouting(1, offset=1)
        assert policy.route_write("t", 5) == 0


class TestEmptyEngineQueries:
    def test_all_read_paths_empty(self, engine):
        assert not engine.term_postings("status", 1)
        assert not engine.numeric_range("created_time", 0, 100)
        assert not engine.text_postings("auction_title", "anything")
        assert not engine.subattribute_postings("k", "v")
        assert not engine.composite_search("tenant_id_created_time", {"tenant_id": 1})
        assert engine.doc_count() == 0

    def test_fetch_empty_posting_list(self, engine):
        assert engine.fetch(PostingList.empty()) == []

    def test_refresh_empty_buffer_returns_none(self, engine):
        assert engine.refresh() is None
        assert engine.stats.refreshes == 0

    def test_flush_empty_engine(self, engine):
        engine.flush()  # must not raise
        assert engine.doc_count() == 0


class TestExecutorEdges:
    def test_unknown_plan_node_rejected(self, engine):
        class Bogus(PlanNode):
            def describe(self, indent=0):
                return "bogus"

        with pytest.raises(PlanningError):
            QueryExecutor(engine).execute(PhysicalPlan(root=Bogus()))

    def test_like_regex_escapes_metacharacters(self):
        regex = _like_to_regex("a.b%")
        assert regex.match("a.bXYZ")
        assert not regex.match("aXbXYZ")  # '.' must be literal

    def test_like_underscore_single_char(self):
        regex = _like_to_regex("a_c")
        assert regex.match("abc")
        assert not regex.match("abbc")

    def test_query_on_unknown_column_returns_empty(self, engine):
        engine.index(make_log(1))
        engine.refresh()
        from repro.query import RuleBasedOptimizer, Xdriver4ES
        from repro.query.optimizer import CatalogInfo

        catalog = CatalogInfo(schema=engine.config.schema)
        translated = Xdriver4ES().translate(
            parse_sql("SELECT * FROM t WHERE no_such_column = 1")
        )
        plan = RuleBasedOptimizer(catalog).plan(translated.statement)
        rows, _ = QueryExecutor(engine).execute(plan)
        assert not rows


class TestSqlEdgeCases:
    def test_between_with_reversed_bounds_yields_empty(self, engine):
        engine.index(make_log(1, created=5.0))
        engine.refresh()
        assert not engine.numeric_range("created_time", 10, 1)

    def test_in_with_single_value(self):
        stmt = parse_sql("SELECT * FROM t WHERE a IN (1)")
        assert stmt.where.values == (1,)

    def test_whitespace_heavy_sql(self):
        stmt = parse_sql("  SELECT   *\n FROM\tt\n WHERE  a =  1  ")
        assert stmt.table == "t"

    def test_unterminated_string_rejected(self):
        with pytest.raises(SqlSyntaxError):
            parse_sql("SELECT * FROM t WHERE a = 'oops")

    def test_double_where_rejected(self):
        with pytest.raises((SqlSyntaxError, UnsupportedSqlError)):
            parse_sql("SELECT * FROM t WHERE a = 1 WHERE b = 2")

    def test_empty_in_list_rejected(self):
        with pytest.raises(SqlSyntaxError):
            parse_sql("SELECT * FROM t WHERE a IN ()")


class TestSortedIndexEdges:
    def test_empty_index_ranges(self):
        index = SortedIndex()
        assert not index.range(0, 100)
        assert index.min_value() is None
        assert index.blocks_touched(0, 10) == 0

    def test_single_element(self):
        index = SortedIndex()
        index.add(5.0, 0)
        assert index.range(5, 5).to_list() == [0]
        assert index.range(5.1, 6).to_list() == []

    def test_negative_and_float_values(self):
        index = SortedIndex()
        index.add(-1.5, 0)
        index.add(0.0, 1)
        index.add(1.5, 2)
        assert index.range(-2, 0).to_list() == [0, 1]

    def test_invalid_block_size(self):
        with pytest.raises(StorageError):
            SortedIndex(block_size=1)


class TestAggregatorEdges:
    def test_limit_zero_returns_no_rows_but_counts_hits(self):
        from repro.query import ResultAggregator

        agg = ResultAggregator(limit=0)
        result = agg.aggregate([[{"a": 1}, {"a": 2}]])
        assert result.rows == ()
        assert result.total_hits == 2

    def test_having_without_aggregates_rejected(self):
        from repro.query import ResultAggregator
        from repro.query.ast import AggregateProjection, HavingCondition

        with pytest.raises(QueryError):
            ResultAggregator(
                having=(
                    HavingCondition(AggregateProjection("count", "*"), ">", 1),
                )
            )


class TestShardEngineMisuse:
    def test_index_missing_id_field_rejected(self, engine):
        with pytest.raises(InvalidDocumentError):
            engine.index({"tenant_id": "t", "created_time": 0.0})
        assert issubclass(InvalidDocumentError, StorageError)

    def test_double_delete_raises(self, engine):
        engine.index(make_log(1))
        engine.delete(1)
        from repro.errors import DocumentNotFoundError

        with pytest.raises(DocumentNotFoundError):
            engine.delete(1)

    def test_get_after_refresh_and_merge(self, engine_config):
        from dataclasses import replace

        from repro.storage import TieredMergePolicy

        config = replace(engine_config, auto_refresh_every=None)
        engine = ShardEngine(config, merge_policy=TieredMergePolicy(merge_factor=2))
        for batch in range(3):
            engine.index(make_log(batch, status=batch))
            engine.refresh()
        assert engine.get(0).get("status") == 0
        assert engine.get(2).get("status") == 2

"""Tests for ES-DSL translation, Xdriver4ES, optimizer plans, executor and
the coordinator-side aggregator."""

from __future__ import annotations

from collections import Counter

import pytest

from repro.errors import QueryError
from repro.query import (
    QueryExecutor,
    ResultAggregator,
    RuleBasedOptimizer,
    Xdriver4ES,
    parse_sql,
    to_dsl,
)
from repro.query.ast import OrderBy
from repro.query.optimizer import CatalogInfo
from repro.query.planner import (
    CompositeSearch,
    FullScan,
    Intersect,
    RangeSearch,
    SequentialScanFilter,
    TermSearch,
    Union,
)
from repro.query.xdriver import date_format, ifnull
from repro.storage import ShardEngine
from tests.conftest import make_log


def leaf_counts(plan) -> Counter:
    """Leaf operators of *plan* by type — the metric Figures 7/8 contrast."""
    return Counter(type(leaf).__name__ for leaf in plan.root.leaf_operators())


@pytest.fixture()
def catalog(engine_config):
    return CatalogInfo(
        schema=engine_config.schema,
        composite_indexes=engine_config.composite_columns,
        scan_columns=engine_config.scan_columns,
    )


@pytest.fixture()
def loaded_engine(engine):
    for i in range(30):
        engine.index(
            make_log(
                i,
                tenant="t1" if i % 3 else "t2",
                created=float(i),
                status=i % 4,
                group=i % 5,
                title="red cotton shirt" if i % 2 else "blue silk dress",
                attributes=f"attr_0001:v{i % 2};attr_0999:v1",
                quantity=i % 7,
            )
        )
    engine.refresh()
    return engine


class TestDslTranslation:
    def test_and_becomes_must(self):
        stmt = parse_sql("SELECT * FROM t WHERE a = 1 AND b = 2")
        dsl = to_dsl(stmt.where)
        assert dsl.kind == "bool"
        assert len(dsl.must) == 2

    def test_or_becomes_should(self):
        stmt = parse_sql("SELECT * FROM t WHERE a = 1 OR b = 2")
        assert len(to_dsl(stmt.where).should) == 2

    def test_not_becomes_must_not(self):
        stmt = parse_sql("SELECT * FROM t WHERE NOT a = 1")
        assert len(to_dsl(stmt.where).must_not) == 1

    def test_like_becomes_wildcard(self):
        stmt = parse_sql("SELECT * FROM t WHERE a LIKE '%x_y%'")
        json = to_dsl(stmt.where).to_json()
        assert json == {"wildcard": {"field": "a", "value": "*x?y*"}}

    def test_between_becomes_range(self):
        stmt = parse_sql("SELECT * FROM t WHERE a BETWEEN 1 AND 2")
        json = to_dsl(stmt.where).to_json()
        assert json == {"range": {"field": "a", "gte": 1, "lte": 2}}

    def test_leaf_and_depth_metrics(self):
        stmt = parse_sql("SELECT * FROM t WHERE (a = 1 OR b = 2) AND c = 3")
        dsl = to_dsl(stmt.where)
        assert dsl.leaf_count() == 3
        assert dsl.depth() == 3


class TestXdriver:
    def test_translation_reduces_width_via_merge(self):
        stmt = parse_sql(
            "SELECT * FROM t WHERE tenant_id = 1 OR tenant_id = 2 OR tenant_id = 3"
        )
        translated = Xdriver4ES().translate(stmt)
        assert translated.width_reduction > 0
        assert translated.dsl.kind == "terms"

    def test_conjunction_of_disjunctions_is_distributed_into_dnf(self):
        """DNF is the one normal form: (a OR b) AND (c OR d) becomes four
        conjunctions under one OR, and its DSL a ``should`` of ``must``s."""
        from repro.query.ast import AndNode, OrNode

        translated = Xdriver4ES().translate(
            parse_sql("SELECT * FROM t WHERE (a = 1 OR b = 2) AND (c = 3 OR d = 4)")
        )
        where = translated.statement.where
        assert isinstance(where, OrNode)
        assert [
            tuple(p.column for p in conj.children)
            for conj in where.children
            if isinstance(conj, AndNode)
        ] == [("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")]
        assert isinstance(translated.original_where, AndNode)
        assert translated.width_reduction == -4  # distribution widens it
        dsl = translated.dsl
        assert dsl.kind == "bool" and not dsl.must and len(dsl.should) == 4
        assert all(len(clause.must) == 2 for clause in dsl.should)

    def test_negations_are_pushed_to_the_leaves(self):
        """De Morgan before distribution: NOT (a AND b) is a disjunction of
        inequalities, NOT (a OR b) one conjunction of them."""
        from repro.query.ast import AndNode, OrNode

        def where(sql):
            return Xdriver4ES().translate(parse_sql("SELECT * FROM t WHERE " + sql)).statement.where

        for sql, node in (("NOT (a = 1 AND b = 2)", OrNode), ("NOT (a = 1 OR b = 2)", AndNode)):
            translated = where(sql)
            assert isinstance(translated, node), sql
            assert [(p.column, p.op) for p in translated.children] == [("a", "!="), ("b", "!=")]

    def test_a_disjunction_of_conjunctions_is_left_as_it_is(self):
        stmt = parse_sql("SELECT * FROM t WHERE (a = 1 AND b = 2) OR c = 3")
        translated = Xdriver4ES().translate(stmt)
        assert translated.statement.where == translated.original_where
        assert translated.depth_reduction == translated.width_reduction == 0

    def test_no_where_translates_to_none(self):
        translated = Xdriver4ES().translate(parse_sql("SELECT * FROM t"))
        assert translated.dsl is None

    def test_ifnull(self):
        assert ifnull(None, 5) == 5
        assert ifnull(7, 5) == 7

    def test_date_format(self):
        from repro.query.sql_parser import timestamp_to_epoch

        epoch = timestamp_to_epoch("2021-09-16 08:30:00")
        assert date_format(epoch) == "2021-09-16 08:30:00"
        assert date_format(epoch, "%Y-%m-%d") == "2021-09-16"

class TestOptimizerPlans:
    def test_figure8_shape_composite_plus_scan_plus_union(self, catalog):
        """The paper's example query must plan exactly as Figure 8."""
        stmt = parse_sql(
            "SELECT * FROM transaction_logs WHERE tenant_id = 't1' "
            "AND created_time BETWEEN 0 AND 100 AND status = 1 OR group = 666"
        )
        translated = Xdriver4ES().translate(stmt)
        plan = RuleBasedOptimizer(catalog).plan(translated.statement)
        assert isinstance(plan.root, Union)
        scan_branch = plan.root.children[0]
        assert isinstance(scan_branch, SequentialScanFilter)
        assert isinstance(scan_branch.child, CompositeSearch)
        assert scan_branch.child.index_name == "tenant_id_created_time"
        counts = leaf_counts(plan)
        assert counts.get("CompositeSearch") == 1
        assert counts.get("TermSearch") == 1

    def test_disabled_optimizer_is_figure7_shape(self, catalog):
        """With the RBO off, every predicate gets its own index search."""
        stmt = parse_sql(
            "SELECT * FROM t WHERE tenant_id = 't1' "
            "AND created_time BETWEEN 0 AND 100 AND status = 1 OR group = 666"
        )
        translated = Xdriver4ES().translate(stmt)
        plan = RuleBasedOptimizer(catalog, enabled=False).plan(translated.statement)
        counts = leaf_counts(plan)
        assert "CompositeSearch" not in counts
        assert counts.get("RangeSearch", 0) == 1  # created_time
        assert counts.get("TermSearch", 0) == 3  # tenant_id, status, group

    def test_longest_match_composite_selection(self, engine_config):
        catalog = CatalogInfo(
            schema=engine_config.schema,
            composite_indexes=(("tenant_id",), ("tenant_id", "created_time")),
            scan_columns=frozenset(),
        )
        stmt = parse_sql(
            "SELECT * FROM t WHERE tenant_id = 1 AND created_time = 5"
        )
        translated = Xdriver4ES().translate(stmt)
        plan = RuleBasedOptimizer(catalog).plan(translated.statement)
        leaf = plan.root
        assert isinstance(leaf, CompositeSearch)
        assert leaf.index_name == "tenant_id_created_time"
        assert len(leaf.equalities) == 2

    def test_scan_list_column_becomes_filter_not_index(self, catalog):
        stmt = parse_sql("SELECT * FROM t WHERE tenant_id = 1 AND status = 2")
        translated = Xdriver4ES().translate(stmt)
        plan = RuleBasedOptimizer(catalog).plan(translated.statement)
        assert isinstance(plan.root, SequentialScanFilter)
        assert plan.root.column == "status"

    def _plan(self, catalog, where, enabled=True):
        translated = Xdriver4ES().translate(parse_sql(f"SELECT * FROM t WHERE {where}"))
        return RuleBasedOptimizer(catalog, enabled=enabled).plan(translated.statement)

    @pytest.mark.parametrize(
        "unindexed, op",
        [
            ("group >= 3", ">="),
            ("buyer_id != 7", "!="),
            ("auction_title LIKE '%cotton%'", "like"),
            ("ATTR(attr_0777) = 'y'", "attr"),
        ],
    )
    def test_predicate_without_index_is_scanned_over_the_indexed_rows(
        self, engine_config, unindexed, op
    ):
        """Figure 8's rule: never over the shard when something narrows first."""
        catalog = CatalogInfo(
            schema=engine_config.schema,
            composite_indexes=engine_config.composite_columns,
            scan_columns=engine_config.scan_columns,
            indexed_subattributes=frozenset({"attr_0001"}),
        )
        plan = self._plan(
            catalog, f"{unindexed} AND tenant_id = 1 AND created_time BETWEEN 0 AND 9"
        )
        assert isinstance(plan.root, SequentialScanFilter) and plan.root.op == op
        assert isinstance(plan.root.child, CompositeSearch)
        assert leaf_counts(plan) == {"CompositeSearch": 1}
        # a single-column index narrows just as well as a composite one
        plan = self._plan(catalog, f"{unindexed} AND seller_id = 4")
        assert isinstance(plan.root, SequentialScanFilter)
        assert plan.root.child == TermSearch("seller_id", 4)

    def test_numeric_range_is_scanned_over_a_composite_search_only(self, catalog):
        """A range search sorts every match in the shard; the tenant's rows
        are fewer. Equality stays a point lookup, and so does a range that
        no composite search narrows."""
        root = self._plan(
            catalog, "tenant_id = 1 AND created_time BETWEEN 0 AND 9 AND amount >= 5"
        ).root
        assert root == SequentialScanFilter(root.child, "amount", ">=", 5)
        assert isinstance(root.child, CompositeSearch)
        between = self._plan(catalog, "tenant_id = 1 AND amount BETWEEN 2 AND 5").root
        assert (between.op, between.value) == ("between", (2, 5))
        assert isinstance(between.child, CompositeSearch)
        point = self._plan(catalog, "tenant_id = 1 AND amount = 5").root
        assert isinstance(point, Intersect) and RangeSearch("amount", 5, 5) in point.children
        unnarrowed = self._plan(catalog, "seller_id = 4 AND amount >= 5").root
        assert isinstance(unnarrowed, Intersect)
        assert RangeSearch("amount", 5, None) in unnarrowed.children

    def test_whole_shard_scan_remains_only_where_nothing_narrows_first(self, catalog):
        assert self._plan(catalog, "group >= 3").root == FullScan("group", ">=", 3)
        assert self._plan(catalog, "group != 3").root == FullScan("group", "!=", 3)
        under_union = self._plan(catalog, "group >= 3 OR tenant_id = 1").root
        assert isinstance(under_union, Union)
        assert under_union.children[0] == FullScan("group", ">=", 3)
        # two predicates without an index: one walks the shard, the other
        # scans what it kept
        both = self._plan(catalog, "group >= 3 AND auction_title LIKE 'red%'").root
        assert isinstance(both, SequentialScanFilter) and both.op == "like"
        assert both.child == FullScan("group", ">=", 3)
        disabled = self._plan(catalog, "group >= 3 AND tenant_id = 1", enabled=False).root
        assert isinstance(disabled, Intersect)
        assert FullScan("group", ">=", 3) in disabled.children

    def test_no_where_is_match_all(self, catalog):
        plan = RuleBasedOptimizer(catalog).plan(parse_sql("SELECT * FROM t"))
        assert type(plan.root).__name__ == "MatchAll"

    def test_plan_describe_readable(self, catalog):
        stmt = parse_sql("SELECT * FROM t WHERE tenant_id = 1 AND status = 2")
        translated = Xdriver4ES().translate(stmt)
        text = RuleBasedOptimizer(catalog).plan(translated.statement).describe()
        assert "SeqScanFilter" in text and "CompositeIndexSearch" in text


class TestExecutor:
    def _run(self, engine, catalog, sql, enabled=True):
        translated = Xdriver4ES().translate(parse_sql(sql))
        plan = RuleBasedOptimizer(catalog, enabled=enabled).plan(translated.statement)
        rows, trace = QueryExecutor(engine).execute(plan)
        return rows, trace, plan

    def test_optimized_and_unoptimized_plans_agree(self, loaded_engine, catalog):
        queries = [
            "SELECT * FROM t WHERE tenant_id = 't1' AND created_time BETWEEN 3 AND 20 AND status = 1",
            "SELECT * FROM t WHERE tenant_id = 't2' OR group = 3",
            "SELECT * FROM t WHERE status != 0 AND tenant_id = 't1'",
            "SELECT * FROM t WHERE quantity IN (1, 2) AND tenant_id = 't1'",
            "SELECT * FROM t WHERE NOT status = 1",
            "SELECT * FROM t WHERE auction_title LIKE '%cotton%'",
            "SELECT * FROM t WHERE MATCH(auction_title, 'silk dress')",
        ]
        for sql in queries:
            opt, _, _ = self._run(loaded_engine, catalog, sql, enabled=True)
            raw, _, _ = self._run(loaded_engine, catalog, sql, enabled=False)
            assert opt == raw, sql

    def test_not_equal_has_one_null_rule_on_every_access_path(self, engine, catalog):
        """SQL's rule: a row lacking the column matches neither ``= v`` nor
        ``!= v`` — on a KEYWORD, a scan-list and a NUMERIC column, through the
        composite+scan, the single-column and the optimizer-disabled plans.
        A numeric string (the schema accepts ``"3"``) is the number on all."""
        docs = []
        for i in range(200):
            doc = make_log(i, tenant="t1", created=float(i), group=i % 5,
                           quantity=i % 7, amount=float(i % 4))
            if i % 11 == 0:
                doc["quantity"], doc["amount"] = str(doc["quantity"]), str(doc["amount"])
            if i % 10 == 0:
                del doc["group"]
            if i % 9 == 0:
                del doc["quantity"]
            if i % 8 == 0:
                del doc["amount"]
            docs.append(doc)
            engine.index(doc)
            if i % 70 == 69:
                engine.refresh()
        engine.refresh()
        assert docs[33]["quantity"] == "5" and docs[33]["amount"] == "1.0"
        assert docs[143]["quantity"] == "3" and docs[143]["amount"] == "3.0"
        for column in ("group", "quantity", "amount"):
            expected = [
                i for i, doc in enumerate(docs)
                if doc.get(column) is not None and float(doc[column]) != 3
            ]
            assert 0 < len(expected) < sum(1 for doc in docs if doc.get(column) != 3)
            for where, enabled in [
                (f"tenant_id = 't1' AND created_time >= 0 AND {column} != 3", True),
                (f"{column} != 3", True),
                (f"NOT {column} = 3", True),
                (f"tenant_id = 't1' AND {column} != 3", False),
                (f"{column} != 3", False),
            ]:
                rows, _, plan = self._run(
                    engine, catalog, f"SELECT * FROM t WHERE {where}", enabled=enabled
                )
                got = [doc["transaction_id"] for doc in engine.fetch(rows)]
                assert got == expected, f"{where} (optimizer={enabled})\n{plan.describe()}"

    def test_optimizer_reduces_intermediate_postings(self, loaded_engine, catalog):
        sql = (
            "SELECT * FROM t WHERE tenant_id = 't1' "
            "AND created_time BETWEEN 0 AND 25 AND status = 1"
        )
        _, trace_opt, _ = self._run(loaded_engine, catalog, sql, enabled=True)
        _, trace_raw, _ = self._run(loaded_engine, catalog, sql, enabled=False)
        assert trace_opt.total_postings < trace_raw.total_postings

    def test_subattribute_indexed_search(self, loaded_engine, catalog):
        rows, _, _ = self._run(
            loaded_engine, catalog, "SELECT * FROM t WHERE ATTR(attr_0001) = 'v1'"
        )
        expected = [
            row
            for row, doc in loaded_engine.iter_documents()
            if "attr_0001:v1" in doc.get("attributes", "")
        ]
        assert list(rows) == expected

    def test_subattribute_unindexed_falls_back_to_scan(self, engine_config):
        from dataclasses import replace

        config = replace(engine_config, indexed_subattributes=frozenset({"attr_0001"}))
        engine = ShardEngine(config)
        engine.index(make_log(1, attributes="attr_0001:x;attr_0777:y"))
        engine.index(make_log(2, attributes="attr_0777:z"))
        engine.refresh()
        catalog = CatalogInfo(
            schema=config.schema,
            composite_indexes=config.composite_columns,
            scan_columns=config.scan_columns,
            indexed_subattributes=config.indexed_subattributes,
        )
        translated = Xdriver4ES().translate(
            parse_sql("SELECT * FROM t WHERE ATTR(attr_0777) = 'y'")
        )
        plan = RuleBasedOptimizer(catalog).plan(translated.statement)
        assert leaf_counts(plan)["SubAttributeScan"] == 1
        rows, _ = QueryExecutor(engine).execute(plan)
        assert len(rows) == 1

    def test_match_requires_all_tokens(self, loaded_engine, catalog):
        rows, _, _ = self._run(
            loaded_engine, catalog, "SELECT * FROM t WHERE MATCH(auction_title, 'red cotton')"
        )
        some, _, _ = self._run(
            loaded_engine, catalog, "SELECT * FROM t WHERE MATCH(auction_title, 'red silk')"
        )
        assert len(rows) > 0
        assert len(some) == 0  # no title has both "red" and "silk"


class TestAggregator:
    def test_global_sort_and_limit(self):
        agg = ResultAggregator(
            columns=("id",), order_by=OrderBy("id", descending=True), limit=3
        )
        result = agg.aggregate([[{"id": 1}, {"id": 5}], [{"id": 3}, {"id": 9}]])
        assert [r["id"] for r in result.rows] == [9, 5, 3]
        assert result.total_hits == 4
        assert result.subqueries == 2

    def test_none_values_sort_first_ascending(self):
        agg = ResultAggregator(order_by=OrderBy("x"))
        result = agg.aggregate([[{"x": 2}, {"x": None}, {"x": 1}]])
        assert [r["x"] for r in result.rows] == [None, 1, 2]

    def test_projection_of_missing_column(self):
        agg = ResultAggregator(columns=("a", "b"))
        result = agg.aggregate([[{"a": 1}]])
        assert result.rows[0] == {"a": 1, "b": None}

    def test_mixed_type_sort_raises(self):
        agg = ResultAggregator(order_by=OrderBy("x"))
        with pytest.raises(QueryError):
            agg.aggregate([[{"x": 1}, {"x": "s"}]])

    def test_aggregates_skip_nulls(self):
        statement = parse_sql(
            "SELECT COUNT(*), COUNT(v), SUM(v), AVG(v), MIN(v), MAX(v) FROM t"
        )
        agg = ResultAggregator(columns=statement.columns)
        result = agg.aggregate([[{"v": 1}, {"v": 2}], [{"v": 3}, {"v": None}]])
        assert list(result.rows) == [{
            "count(*)": 4, "count(v)": 3, "sum(v)": 6,
            "avg(v)": 2, "min(v)": 1, "max(v)": 3,
        }]

    def test_aggregates_over_only_nulls_are_null(self):
        statement = parse_sql("SELECT COUNT(v), SUM(v), AVG(v), MIN(v) FROM t")
        agg = ResultAggregator(columns=statement.columns)
        result = agg.aggregate([[{"v": None}], []])
        assert list(result.rows) == [
            {"count(v)": 0, "sum(v)": None, "avg(v)": None, "min(v)": None}
        ]

    def test_unknown_aggregate_is_a_query_error(self):
        with pytest.raises(QueryError):
            parse_sql("SELECT MEDIAN(v) FROM t")


class TestLikeRegexMemoization:
    def test_same_pattern_returns_same_compiled_object(self):
        from repro.query.executor import _like_to_regex

        assert _like_to_regex("%cotton_%") is _like_to_regex("%cotton_%")
        assert _like_to_regex("a%") is not _like_to_regex("b%")

    def test_two_executions_reuse_compiled_pattern(self, loaded_engine, catalog):
        from repro.query.executor import _like_to_regex

        _like_to_regex.cache_clear()
        sql = "SELECT * FROM t WHERE auction_title LIKE '%cotton%'"
        translated = Xdriver4ES().translate(parse_sql(sql))
        plan = RuleBasedOptimizer(catalog).plan(translated.statement)
        first, _ = QueryExecutor(loaded_engine).execute(plan)
        after_first = _like_to_regex.cache_info()
        assert after_first.misses == 1  # compiled exactly once
        second, _ = QueryExecutor(loaded_engine).execute(plan)
        after_second = _like_to_regex.cache_info()
        assert after_second.misses == 1  # no recompilation
        assert after_second.hits > after_first.hits
        assert first == second

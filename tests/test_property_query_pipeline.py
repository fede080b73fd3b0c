"""Property test: the whole query pipeline vs a brute-force evaluator.

Hypothesis generates random document sets and random WHERE trees; the
documents are indexed into a real shard engine and the query is executed
through Xdriver4ES → RBO → executor (both with the optimizer on and off).
The result must equal evaluating the predicate tree directly over the
documents in plain Python. This single test cross-checks the parser-level
semantics, every access path, the normalization rewrites and the executor.
"""

from __future__ import annotations

import re

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.query import QueryExecutor, RuleBasedOptimizer, Xdriver4ES
from repro.query.ast import (
    AndNode,
    BetweenPredicate,
    ComparisonPredicate,
    InPredicate,
    LikePredicate,
    NotNode,
    OrNode,
    SelectStatement,
)
from repro.query.optimizer import CatalogInfo
from repro.storage import EngineConfig, Schema, ShardEngine

# Small value domains so predicates actually hit documents.
_TENANTS = ["a", "b", "c"]
_STATUSES = [0, 1, 2]
_TIMES = [0.0, 1.0, 2.0, 3.0]


def _doc_strategy():
    return st.fixed_dictionaries(
        {
            "tenant_id": st.sampled_from(_TENANTS),
            "created_time": st.sampled_from(_TIMES),
        },
        optional={
            "status": st.sampled_from(_STATUSES),
            "quantity": st.integers(min_value=0, max_value=4),
        },
    )


def _leaf_strategy():
    keyword_eq = st.builds(
        lambda v: ComparisonPredicate("tenant_id", "=", v), st.sampled_from(_TENANTS)
    )
    status_cmp = st.builds(
        lambda op, v: ComparisonPredicate("status", op, v),
        st.sampled_from(["=", "!="]),
        st.sampled_from(_STATUSES),
    )
    time_range = st.builds(
        lambda op, v: ComparisonPredicate("created_time", op, v),
        st.sampled_from(["<", "<=", ">", ">="]),
        st.sampled_from(_TIMES),
    )
    between = st.builds(
        lambda a, b: BetweenPredicate("created_time", min(a, b), max(a, b)),
        st.sampled_from(_TIMES),
        st.sampled_from(_TIMES),
    )
    in_list = st.builds(
        lambda column, vs: InPredicate(column, tuple(sorted(set(vs)))),
        st.sampled_from(["quantity", "status"]),
        st.lists(st.integers(0, 4), min_size=1, max_size=3),
    )
    quantity_between = st.builds(
        lambda a, b: BetweenPredicate("quantity", min(a, b), max(a, b)),
        st.integers(0, 4),
        st.integers(0, 4),
    )
    status_like = st.builds(
        lambda pattern: LikePredicate("status", pattern), st.sampled_from(["1", "%", "_", "2%"])
    )
    return st.one_of(
        keyword_eq, status_cmp, time_range, between, in_list, quantity_between, status_like
    )


def _tree_strategy():
    return st.recursive(
        _leaf_strategy(),
        lambda child: st.one_of(
            st.builds(lambda a, b: AndNode((a, b)), child, child),
            st.builds(lambda a, b: OrNode((a, b)), child, child),
            st.builds(NotNode, child),
        ),
        max_leaves=6,
    )


def _evaluate(node, doc: dict) -> bool | None:
    """The predicate tree's truth value: True, False or None (unknown)."""
    if isinstance(node, (AndNode, OrNode)):
        values = [_evaluate(c, doc) for c in node.children]
        decisive = isinstance(node, OrNode)  # True decides an OR, False an AND
        if decisive in values:
            return decisive
        return None if None in values else not decisive
    if isinstance(node, NotNode):
        value = _evaluate(node.child, doc)
        return None if value is None else not value
    value = doc.get(node.column)
    if value is None:
        return None
    if isinstance(node, BetweenPredicate):
        return node.low <= value <= node.high
    if isinstance(node, InPredicate):
        return value in node.values
    if isinstance(node, LikePredicate):
        regex = "".join(
            ".*" if c == "%" else "." if c == "_" else re.escape(c) for c in node.pattern
        )
        return re.fullmatch(regex, str(value)) is not None
    return {
        "=": value == node.value,
        "!=": value != node.value,
        "<": value < node.value,
        "<=": value <= node.value,
        ">": value > node.value,
        ">=": value >= node.value,
    }[node.op]


_CONFIG = EngineConfig(
    schema=Schema.transaction_logs(),
    composite_columns=(("tenant_id", "created_time"),),
    scan_columns=frozenset({"status", "quantity"}),
    auto_refresh_every=None,
)
_CATALOG = CatalogInfo(
    schema=_CONFIG.schema,
    composite_indexes=_CONFIG.composite_columns,
    scan_columns=_CONFIG.scan_columns,
)


@settings(max_examples=120, deadline=None)
@given(
    docs=st.lists(_doc_strategy(), min_size=0, max_size=15),
    where=_tree_strategy(),
)
def test_property_pipeline_matches_bruteforce(docs, where):
    engine = ShardEngine(_CONFIG)
    for i, doc in enumerate(docs):
        engine.index({"transaction_id": i, **doc})
    engine.refresh()

    statement = SelectStatement(columns=("*",), table="t", where=where)
    translated = Xdriver4ES().translate(statement)
    expected = {
        i for i, doc in enumerate(docs) if _evaluate(where, doc) is True
    }

    for enabled in (True, False):
        plan = RuleBasedOptimizer(_CATALOG, enabled=enabled).plan(translated.statement)
        rows, _ = QueryExecutor(engine).execute(plan)
        got = {doc["transaction_id"] for doc in engine.fetch(rows)}
        assert got == expected, f"optimizer={enabled}\nplan:\n{plan.describe()}"


@settings(max_examples=60, deadline=None)
@given(
    docs=st.lists(_doc_strategy(), min_size=1, max_size=12),
    where=_tree_strategy(),
)
def test_property_pipeline_stable_across_refresh_boundaries(docs, where):
    """Splitting the same documents over several segments (refresh after
    every few docs) must not change any query result."""
    one_segment = ShardEngine(_CONFIG)
    many_segments = ShardEngine(_CONFIG)
    for i, doc in enumerate(docs):
        one_segment.index({"transaction_id": i, **doc})
        many_segments.index({"transaction_id": i, **doc})
        if i % 3 == 0:
            many_segments.refresh()
    one_segment.refresh()
    many_segments.refresh()

    statement = SelectStatement(columns=("*",), table="t", where=where)
    translated = Xdriver4ES().translate(statement)
    plan = RuleBasedOptimizer(_CATALOG).plan(translated.statement)
    rows_a, _ = QueryExecutor(one_segment).execute(plan)
    rows_b, _ = QueryExecutor(many_segments).execute(plan)
    ids_a = {d["transaction_id"] for d in one_segment.fetch(rows_a)}
    ids_b = {d["transaction_id"] for d in many_segments.fetch(rows_b)}
    assert ids_a == ids_b

"""Property test: every access path over a shard with history.

One shard engine lives through interleaved index / update / delete / refresh
/ merge operations on documents with randomly missing columns and the odd
number written as a string, so it ends up
with several segments, deleted rows, and — after a merge of non-adjacent
segments — overlapping segment row ranges. Random conjunctions over every
kind of predicate the optimizer distinguishes (indexed equality, numeric
range, a comparison no index answers, ``LIKE``, ``ATTR()`` on an indexed and
on an unindexed sub-attribute, ``!=``), alone and under ``OR``, must return
exactly what a naive filter over the live sources returns — with the filter
cache on and off, the optimizer on and off.
"""

from __future__ import annotations

import itertools
import re

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.query import QueryExecutor, RuleBasedOptimizer, Xdriver4ES
from repro.query.ast import (
    AndNode,
    BetweenPredicate,
    ComparisonPredicate,
    LikePredicate,
    OrNode,
    SelectStatement,
    SubAttributePredicate,
)
from repro.query.optimizer import CatalogInfo
from repro.storage import EngineConfig, Schema, ShardEngine
from repro.storage.merge import TieredMergePolicy

_TENANTS = ["a", "b"]
_TIMES = [0.0, 1.0, 2.0, 3.0]
_SMALL = [0, 1, 2, 3]
_TITLES = ["red cotton shirt", "blue silk dress", "red silk scarf"]
_ATTRS = ["hot:v1", "hot:v2;cold:v1", "cold:v2", "cold:v1;hot:v1"]
_PATTERNS = ["red%", "%silk%", "%shirt", "blue_silk%"]

#: Columns a document may lack; the id, tenant and time columns are mandatory.
_OPTIONAL = {
    "status": st.sampled_from(_SMALL),
    "group": st.sampled_from(_SMALL),
    "quantity": st.sampled_from(_SMALL + ["3"]),  # the schema takes numeric strings
    "amount": st.sampled_from([0.5, 1.0, 2.5, 3.0, "1.0", "3"]),
    "buyer_id": st.sampled_from(_SMALL),
    "auction_title": st.sampled_from(_TITLES),
    "attributes": st.sampled_from(_ATTRS),
}


def _doc_strategy():
    return st.fixed_dictionaries(
        {"tenant_id": st.sampled_from(_TENANTS), "created_time": st.sampled_from(_TIMES)},
        optional=_OPTIONAL,
    )


def _history_strategy():
    """Batches of 1-5 inserts, each followed by up to two mutations and a
    refresh: small and large segments alternate, so the tiered policy merges
    non-adjacent ones and most histories end with several segments."""
    pick = st.integers(min_value=0, max_value=1_000)
    mutation = st.one_of(
        st.tuples(st.just("update"), pick, st.fixed_dictionaries({}, optional=_OPTIONAL)),
        st.tuples(st.just("delete"), pick),
        st.tuples(st.just("merge")),
    )
    batch = st.tuples(
        st.lists(_doc_strategy(), min_size=1, max_size=5), st.lists(mutation, max_size=2)
    )
    return st.lists(batch, min_size=2, max_size=8).map(
        lambda batches: [
            op
            for docs, mutations in batches
            for op in [("index", doc) for doc in docs] + mutations + [("refresh",)]
        ]
    )


def _leaf_strategy():
    compare = st.sampled_from(["<", "<=", ">", ">="])
    return st.one_of(
        # indexed equality: the composite prefix, a term index, the scan list
        st.builds(lambda v: ComparisonPredicate("tenant_id", "=", v), st.sampled_from(_TENANTS)),
        st.builds(lambda v: ComparisonPredicate("buyer_id", "=", v), st.sampled_from(_SMALL)),
        st.builds(lambda v: ComparisonPredicate("status", "=", v), st.sampled_from(_SMALL)),
        # numeric range
        st.builds(
            lambda a, b: BetweenPredicate("created_time", min(a, b), max(a, b)),
            st.sampled_from(_TIMES),
            st.sampled_from(_TIMES),
        ),
        st.builds(lambda op, v: ComparisonPredicate("amount", op, v), compare, st.sampled_from([1.0, 2.5])),
        # a comparison on a KEYWORD column: no index answers it
        st.builds(lambda op, v: ComparisonPredicate("group", op, v), compare, st.sampled_from(_SMALL)),
        st.builds(lambda p: LikePredicate("auction_title", p), st.sampled_from(_PATTERNS)),
        st.builds(
            lambda k, v: SubAttributePredicate(k, v),
            st.sampled_from(["hot", "cold"]),
            st.sampled_from(["v1", "v2"]),
        ),
        # != on a KEYWORD column, on both scan-list columns, on a NUMERIC column
        st.builds(
            lambda c, v: ComparisonPredicate(c, "!=", v),
            st.sampled_from(["group", "status", "quantity", "amount"]),
            st.sampled_from([1, 3]),
        ),
    )


def _where_strategy():
    conjunction = st.lists(_leaf_strategy(), min_size=1, max_size=4).map(
        lambda leaves: leaves[0] if len(leaves) == 1 else AndNode(tuple(leaves))
    )
    return st.lists(conjunction, min_size=1, max_size=2).map(
        lambda branches: branches[0] if len(branches) == 1 else OrNode(tuple(branches))
    )


def _like(pattern: str, value: str) -> bool:
    regex = "".join(
        ".*" if char == "%" else "." if char == "_" else re.escape(char) for char in pattern
    )
    return re.fullmatch(regex, value, re.IGNORECASE | re.DOTALL) is not None


def _matches(node, source: dict) -> bool:
    """Naive evaluation under SQL's NULL rule: a missing column matches no
    predicate, negated or not."""
    if isinstance(node, AndNode):
        return all(_matches(child, source) for child in node.children)
    if isinstance(node, OrNode):
        return any(_matches(child, source) for child in node.children)
    if isinstance(node, SubAttributePredicate):
        pairs = (part.split(":") for part in (source.get("attributes") or "").split(";") if part)
        return any(key == node.key_name and value == node.value for key, value in pairs)
    value = source.get(node.column)
    if value is None:
        return False
    if node.column in ("quantity", "amount"):
        value = float(value)
    if isinstance(node, BetweenPredicate):
        return node.low <= value <= node.high
    if isinstance(node, LikePredicate):
        return _like(node.pattern, value)
    return {
        "=": value == node.value,
        "!=": value != node.value,
        "<": value < node.value,
        "<=": value <= node.value,
        ">": value > node.value,
        ">=": value >= node.value,
    }[node.op]


def _config(filter_cache_bytes):
    return EngineConfig(
        schema=Schema.transaction_logs(),
        composite_columns=(("tenant_id", "created_time"),),
        scan_columns=frozenset({"status", "quantity"}),
        indexed_subattributes=frozenset({"hot"}),
        auto_refresh_every=None,
        filter_cache_bytes=filter_cache_bytes,
    )


_CATALOG = CatalogInfo(
    schema=Schema.transaction_logs(),
    composite_indexes=(("tenant_id", "created_time"),),
    scan_columns=frozenset({"status", "quantity"}),
    indexed_subattributes=frozenset({"hot"}),
)


def _apply(engine: ShardEngine, ops: list) -> dict:
    """Run *ops* on *engine*; returns the surviving sources by document id."""
    model: dict = {}
    doc_ids = itertools.count()  # never reused
    for op in ops:
        if op[0] == "index":
            doc_id = next(doc_ids)
            source = {"transaction_id": doc_id, **op[1]}
            engine.index(source)
            model[doc_id] = source
        elif op[0] in ("update", "delete") and model:
            doc_id = sorted(model)[op[1] % len(model)]
            if op[0] == "update":
                engine.update(doc_id, op[2])
                model[doc_id] = {**model[doc_id], **op[2]}
            else:
                engine.delete(doc_id)
                del model[doc_id]
        elif op[0] == "refresh":
            engine.refresh()
        elif op[0] == "merge":
            engine.maybe_merge()
    return model


@settings(max_examples=150, deadline=None)
@given(
    ops=_history_strategy(),
    wheres=st.lists(_where_strategy(), min_size=1, max_size=4),
)
def test_every_access_path_matches_a_naive_filter_over_live_sources(ops, wheres):
    # merge_factor=2 over tiny tiers: merges happen, also of non-adjacent
    # segments, which leaves tombstone-padded, overlapping row ranges.
    engines = {
        cached: ShardEngine(
            _config(4 * 1024 * 1024 if cached else None),
            merge_policy=TieredMergePolicy(merge_factor=2, tier_base=3),
        )
        for cached in (True, False)
    }
    live = [_apply(engine, ops) for engine in engines.values()][0]

    for where in wheres:
        statement = SelectStatement(columns=("*",), table="t", where=where)
        translated = Xdriver4ES().translate(statement).statement
        expected = {doc_id for doc_id, source in live.items() if _matches(where, source)}
        for enabled in (True, False):
            plan = RuleBasedOptimizer(_CATALOG, enabled=enabled).plan(translated)
            for cached, engine in engines.items():
                for _ in range(2 if cached else 1):  # second run reads the filter cache
                    rows, _ = QueryExecutor(engine).execute(plan)
                    assert rows.to_list() == sorted(set(rows))
                    got = {doc.doc_id for doc in engine.fetch(rows)}
                    assert got == expected, (
                        f"optimizer={enabled} filter_cache={cached}\n{plan.describe()}"
                    )

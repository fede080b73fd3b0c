"""Tests for AST normalization: flatten, NOT push-down, DNF, predicate
merge — the Xdriver4ES optimizations of §3.1."""

from __future__ import annotations

from hypothesis import given, strategies as st

from repro.query.ast import (
    AndNode,
    BetweenPredicate,
    ComparisonPredicate,
    InPredicate,
    NotNode,
    OrNode,
    depth,
    flatten,
    iter_predicates,
    merge_predicates,
    push_down_not,
    to_dnf,
    width,
)

P = ComparisonPredicate


def a(*children):
    return AndNode(tuple(children))


def o(*children):
    return OrNode(tuple(children))


class TestFlatten:
    def test_nested_ands_collapse(self):
        tree = a(a(P("x", "=", 1), P("y", "=", 2)), P("z", "=", 3))
        flat = flatten(tree)
        assert isinstance(flat, AndNode)
        assert len(flat.children) == 3

    def test_nested_ors_collapse(self):
        tree = o(o(P("x", "=", 1), P("y", "=", 2)), P("z", "=", 3))
        assert len(flatten(tree).children) == 3

    def test_single_child_unwrapped(self):
        assert flatten(a(P("x", "=", 1))) == P("x", "=", 1)

    def test_duplicate_predicates_removed(self):
        tree = a(P("x", "=", 1), P("x", "=", 1), P("y", "=", 2))
        assert len(flatten(tree).children) == 2

    def test_mixed_and_or_preserved(self):
        tree = a(o(P("x", "=", 1), P("y", "=", 2)), P("z", "=", 3))
        flat = flatten(tree)
        assert isinstance(flat, AndNode)
        assert any(isinstance(c, OrNode) for c in flat.children)


class TestPushDownNot:
    def test_de_morgan_and(self):
        tree = NotNode(a(P("x", "=", 1), P("y", "=", 2)))
        result = push_down_not(tree)
        assert isinstance(result, OrNode)
        assert result.children[0] == P("x", "!=", 1)

    def test_de_morgan_or(self):
        tree = NotNode(o(P("x", "<", 1), P("y", ">", 2)))
        result = push_down_not(tree)
        assert isinstance(result, AndNode)
        assert result.children[0] == P("x", ">=", 1)
        assert result.children[1] == P("y", "<=", 2)

    def test_double_negation_cancels(self):
        tree = NotNode(NotNode(P("x", "=", 1)))
        assert push_down_not(tree) == P("x", "=", 1)

    def test_comparison_negation_table(self):
        pairs = [("=", "!="), ("<", ">="), (">", "<="), ("<=", ">"), (">=", "<")]
        for op, negated in pairs:
            assert push_down_not(NotNode(P("x", op, 1))) == P("x", negated, 1)


class TestNormalForms:
    def test_dnf_distributes_and_over_or(self):
        # (a OR b) AND c  →  (a AND c) OR (b AND c)
        tree = a(o(P("a", "=", 1), P("b", "=", 2)), P("c", "=", 3))
        dnf = to_dnf(tree)
        assert isinstance(dnf, OrNode)
        assert len(dnf.children) == 2
        for conj in dnf.children:
            assert isinstance(conj, AndNode)
            assert P("c", "=", 3) in conj.children

    def test_dnf_reduces_depth_of_deep_tree(self):
        tree = a(o(a(o(P("a", "=", 1), P("b", "=", 2)), P("c", "=", 3)), P("d", "=", 4)), P("e", "=", 5))
        assert depth(to_dnf(tree)) <= depth(tree)

    def test_dnf_idempotent(self):
        tree = a(o(P("a", "=", 1), P("b", "=", 2)), P("c", "=", 3))
        once = to_dnf(tree)
        assert to_dnf(once) == once

    def test_explosion_guard_returns_flattened_input(self):
        # 2^20 disjuncts would explode; the guard must bail out.
        clauses = [o(P(f"c{i}", "=", 0), P(f"c{i}", "=", 1)) for i in range(20)]
        tree = a(*clauses)
        result = to_dnf(tree, max_terms=64)
        assert isinstance(result, AndNode)  # unchanged shape, not DNF

    def test_leaf_passthrough(self):
        p = P("x", "=", 1)
        assert to_dnf(p) == p


class TestPredicateMerge:
    def test_or_equalities_become_in(self):
        """The paper's example: tenant_id=1 OR tenant_id=2 → IN (1,2)."""
        tree = o(P("tenant_id", "=", 1), P("tenant_id", "=", 2))
        merged = merge_predicates(tree)
        assert merged == InPredicate("tenant_id", (1, 2))

    def test_or_merge_folds_existing_in(self):
        tree = o(InPredicate("t", (1, 2)), P("t", "=", 3))
        assert merge_predicates(tree) == InPredicate("t", (1, 2, 3))

    def test_or_merge_keeps_other_columns_separate(self):
        tree = o(P("a", "=", 1), P("b", "=", 2))
        merged = merge_predicates(tree)
        assert isinstance(merged, OrNode)
        assert len(merged.children) == 2

    def test_and_ranges_become_between(self):
        tree = a(P("t", ">=", 5), P("t", "<=", 9))
        assert merge_predicates(tree) == BetweenPredicate("t", 5, 9)

    def test_and_ranges_tighten(self):
        tree = a(P("t", ">=", 1), BetweenPredicate("t", 3, 20), P("t", "<=", 10))
        assert merge_predicates(tree) == BetweenPredicate("t", 3, 10)

    def test_merge_reduces_width(self):
        tree = o(*[P("tenant_id", "=", i) for i in range(10)])
        assert width(merge_predicates(tree)) < width(tree)

    def test_single_value_or_collapses_to_equality(self):
        tree = o(P("t", "=", 1), P("t", "=", 1))
        assert merge_predicates(tree) == P("t", "=", 1)


class TestTreeMetrics:
    def test_depth_and_width(self):
        tree = a(o(P("a", "=", 1), P("b", "=", 2)), P("c", "=", 3))
        assert depth(tree) == 3
        assert width(tree) == 3

    def test_iter_predicates_yields_all_leaves(self):
        tree = a(o(P("a", "=", 1), NotNode(P("b", "=", 2))), P("c", "=", 3))
        assert {p.column for p in iter_predicates(tree)} == {"a", "b", "c"}

    def test_none_tree(self):
        assert depth(None) == 0
        assert width(None) == 0


# -- semantic equivalence property ------------------------------------------------

_COLUMNS = ["a", "b", "c"]


def _leaf_strategy():
    return st.builds(
        ComparisonPredicate,
        st.sampled_from(_COLUMNS),
        st.sampled_from(["=", "!=", "<", "<=", ">", ">="]),
        st.integers(min_value=0, max_value=4),
    )


def _tree_strategy():
    return st.recursive(
        _leaf_strategy(),
        lambda children: st.one_of(
            st.builds(lambda a_, b_: AndNode((a_, b_)), children, children),
            st.builds(lambda a_, b_: OrNode((a_, b_)), children, children),
            st.builds(NotNode, children),
        ),
        max_leaves=8,
    )


def _evaluate(node, row: dict) -> bool:
    if isinstance(node, AndNode):
        return all(_evaluate(c, row) for c in node.children)
    if isinstance(node, OrNode):
        return any(_evaluate(c, row) for c in node.children)
    if isinstance(node, NotNode):
        return not _evaluate(node.child, row)
    if isinstance(node, InPredicate):
        return row[node.column] in node.values
    if isinstance(node, BetweenPredicate):
        return node.low <= row[node.column] <= node.high
    value = row[node.column]
    ops = {
        "=": value == node.value,
        "!=": value != node.value,
        "<": value < node.value,
        "<=": value <= node.value,
        ">": value > node.value,
        ">=": value >= node.value,
    }
    return ops[node.op]


@given(
    tree=_tree_strategy(),
    row=st.fixed_dictionaries({c: st.integers(0, 4) for c in _COLUMNS}),
)
def test_property_dnf_preserves_semantics(tree, row):
    assert _evaluate(to_dnf(tree), row) == _evaluate(tree, row)


@given(
    tree=_tree_strategy(),
    row=st.fixed_dictionaries({c: st.integers(0, 4) for c in _COLUMNS}),
)
def test_property_merge_preserves_semantics(tree, row):
    assert _evaluate(merge_predicates(flatten(push_down_not(tree))), row) == _evaluate(
        tree, row
    )

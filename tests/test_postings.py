"""Tests for posting lists and their merge algebra."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.errors import StorageError
from repro.storage import PostingList


class TestConstruction:
    def test_deduplicates_and_sorts(self):
        assert list(PostingList([3, 1, 2, 3, 1])) == [1, 2, 3]

    def test_empty(self):
        assert len(PostingList.empty()) == 0
        assert not PostingList.empty()

    def test_of_varargs(self):
        assert list(PostingList.of(5, 1, 3)) == [1, 3, 5]

    def test_contains_uses_binary_search(self):
        pl = PostingList(range(0, 1000, 2))
        assert 500 in pl
        assert 501 not in pl


class TestAlgebra:
    def test_intersect_basic(self):
        a = PostingList([1, 2, 3, 4])
        b = PostingList([2, 4, 6])
        assert list(a.intersect(b)) == [2, 4]

    def test_intersect_disjoint_is_empty(self):
        assert not PostingList([1, 3]).intersect(PostingList([2, 4]))

    def test_intersect_galloping_path_lopsided_sizes(self):
        small = PostingList([10, 5000, 99999])
        large = PostingList(range(100_000))
        assert list(small.intersect(large)) == [10, 5000, 99999]

    def test_union_basic(self):
        a = PostingList([1, 3])
        b = PostingList([2, 3, 4])
        assert list(a.union(b)) == [1, 2, 3, 4]

    def test_difference(self):
        a = PostingList([1, 2, 3, 4])
        b = PostingList([2, 4])
        assert list(a.difference(b)) == [1, 3]

    def test_intersect_all_orders_smallest_first(self):
        lists = [PostingList(range(100)), PostingList([5, 7]), PostingList(range(50))]
        assert list(PostingList.intersect_all(lists)) == [5, 7]

    def test_intersect_all_empty_input(self):
        assert not PostingList.intersect_all([])

    def test_union_all(self):
        lists = [PostingList([1]), PostingList([2]), PostingList([1, 3])]
        assert list(PostingList.union_all(lists)) == [1, 2, 3]

    def test_shifted(self):
        assert list(PostingList([0, 1, 2]).shifted(10)) == [10, 11, 12]

    def test_shift_negative_rejected(self):
        with pytest.raises(StorageError):
            PostingList([1]).shifted(-1)

    def test_equality_and_hash(self):
        assert PostingList([1, 2]) == PostingList([2, 1])
        assert hash(PostingList([1, 2])) == hash(PostingList([2, 1]))


row_ids = st.lists(st.integers(min_value=0, max_value=10_000), max_size=200)


@given(row_ids, row_ids)
def test_property_intersect_matches_set_semantics(a, b):
    result = PostingList(a).intersect(PostingList(b))
    assert list(result) == sorted(set(a) & set(b))


@given(row_ids, row_ids)
def test_property_union_matches_set_semantics(a, b):
    result = PostingList(a).union(PostingList(b))
    assert list(result) == sorted(set(a) | set(b))


@given(row_ids, row_ids)
def test_property_difference_matches_set_semantics(a, b):
    result = PostingList(a).difference(PostingList(b))
    assert list(result) == sorted(set(a) - set(b))


@given(row_ids, row_ids, row_ids)
def test_property_demorgan_on_postings(a, b, c):
    """(A ∪ B) ∩ C == (A ∩ C) ∪ (B ∩ C) — the rewrite DNF conversion relies on."""
    A, B, C = PostingList(a), PostingList(b), PostingList(c)
    left = A.union(B).intersect(C)
    right = A.intersect(C).union(B.intersect(C))
    assert left == right


@given(row_ids)
def test_property_result_always_sorted_unique(ids):
    pl = PostingList(ids)
    out = list(pl)
    assert out == sorted(set(out))

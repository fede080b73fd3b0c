"""Tests for the index structures: inverted, sorted, composite, doc values."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.errors import PlanningError, StorageError
from repro.storage import CompositeIndex, DocValues, InvertedIndex, PostingList, SortedIndex
from repro.storage.analysis import StandardAnalyzer, tokenize


class TestAnalyzer:
    def test_tokenize_lowercases_and_splits(self):
        assert tokenize("Red COTTON-Shirt 42") == ["red", "cotton", "shirt", "42"]

    def test_stopwords_removed(self):
        analyzer = StandardAnalyzer()
        assert analyzer.analyze("the red and the blue") == ["red", "blue"]

    def test_cjk_characters_kept_as_single_tokens(self):
        analyzer = StandardAnalyzer()
        assert analyzer.analyze("红色衬衫") == ["红", "色", "衬", "衫"]

    def test_empty_text(self):
        assert StandardAnalyzer().analyze("") == []

    def test_duplicates_preserved_in_order(self):
        assert StandardAnalyzer().analyze("red red blue") == ["red", "red", "blue"]


class TestInvertedIndex:
    def test_postings_sorted(self):
        ix = InvertedIndex()
        for row in (5, 1, 9):
            pass
        ix.add("x", 1)
        ix.add("x", 5)
        ix.add("x", 9)
        assert ix.postings("x").to_list() == [1, 5, 9]

    def test_duplicate_row_id_collapsed(self):
        ix = InvertedIndex()
        ix.add("x", 3)
        ix.add("x", 3)
        assert len(ix.postings("x")) == 1

    def test_missing_term_empty(self):
        assert not InvertedIndex().postings("nope")

    def test_doc_frequency(self):
        ix = InvertedIndex()
        ix.add_all(["a", "b"], 1)
        ix.add("a", 2)
        assert ix.doc_frequency("a") == 2
        assert ix.doc_frequency("b") == 1

    def test_memory_terms_counts_pairs(self):
        ix = InvertedIndex()
        ix.add_all(["a", "b", "c"], 1)
        ix.add("a", 2)
        assert ix.memory_terms() == 4

    def test_freeze_snapshot_stable(self):
        ix = InvertedIndex()
        ix.add("a", 1)
        frozen = ix.freeze()
        assert frozen["a"].to_list() == [1]
        ix.add("a", 2)
        assert ix.freeze()["a"].to_list() == [1, 2]


class TestSortedIndex:
    def _index(self, values):
        ix = SortedIndex(block_size=4)
        for row, value in enumerate(values):
            ix.add(value, row)
        return ix

    def test_range_inclusive_both_ends(self):
        ix = self._index([10, 20, 30, 40, 50])
        assert ix.range(20, 40).to_list() == [1, 2, 3]

    def test_range_exclusive_bounds(self):
        ix = self._index([10, 20, 30, 40])
        assert ix.range(10, 40, include_low=False, include_high=False).to_list() == [1, 2]

    def test_open_ended_ranges(self):
        ix = self._index([1, 2, 3])
        assert ix.range(None, 2).to_list() == [0, 1]
        assert ix.range(2, None).to_list() == [1, 2]
        assert ix.range(None, None).to_list() == [0, 1, 2]

    def test_point_lookup_with_duplicates(self):
        ix = self._index([5, 5, 5, 7])
        assert ix.point(5).to_list() == [0, 1, 2]

    def test_empty_range(self):
        ix = self._index([1, 2, 3])
        assert not ix.range(10, 20)

    def test_min_max(self):
        ix = self._index([3, 1, 2])
        assert ix.min_value() == 1
        assert ix.max_value() == 3

    def test_add_after_seal_reseals(self):
        ix = self._index([1, 3])
        assert ix.range(1, 3).to_list() == [0, 1]
        ix.add(2, 99)
        assert ix.range(2, 2).to_list() == [99]

    def test_blocks_touched_proportional_to_range(self):
        ix = SortedIndex(block_size=4)
        for row in range(64):
            ix.add(float(row), row)
        narrow = ix.blocks_touched(0, 3)
        wide = ix.blocks_touched(0, 63)
        assert narrow == 1
        assert wide == 16

    def test_none_value_rejected(self):
        with pytest.raises(StorageError):
            SortedIndex().add(None, 0)

    @given(
        st.lists(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), max_size=100),
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    )
    def test_property_range_matches_bruteforce(self, values, a, b):
        low, high = min(a, b), max(a, b)
        ix = SortedIndex()
        for row, value in enumerate(values):
            ix.add(value, row)
        expected = sorted(row for row, v in enumerate(values) if low <= v <= high)
        assert ix.range(low, high).to_list() == expected


class TestCompositeIndex:
    def _index(self):
        ix = CompositeIndex(("tenant", "time"))
        rows = [
            ("a", 1.0),
            ("a", 2.0),
            ("a", 3.0),
            ("b", 1.0),
            ("b", 9.0),
        ]
        for row_id, values in enumerate(rows):
            ix.add(values, row_id)
        return ix

    def test_name_is_concatenation(self):
        assert CompositeIndex(("c1", "c2")).name == "c1_c2"

    def test_prefix_equality_search(self):
        ix = self._index()
        assert ix.search({"tenant": "a"}).to_list() == [0, 1, 2]

    def test_prefix_plus_range(self):
        ix = self._index()
        result = ix.search({"tenant": "a"}, range_column="time", low=2.0, high=3.0)
        assert result.to_list() == [1, 2]

    def test_range_exclusive_bounds(self):
        ix = self._index()
        result = ix.search(
            {"tenant": "a"}, range_column="time", low=1.0, high=3.0,
            include_low=False, include_high=False,
        )
        assert result.to_list() == [1]

    def test_full_equality_both_columns(self):
        ix = self._index()
        assert ix.search({"tenant": "b", "time": 9.0}).to_list() == [4]

    def test_leftmost_principle_violation_raises(self):
        ix = self._index()
        with pytest.raises(PlanningError):
            ix.search({"time": 1.0})  # skips the leading column

    def test_range_on_wrong_column_raises(self):
        ix = self._index()
        with pytest.raises(PlanningError):
            ix.search({"tenant": "a"}, range_column="other", low=0, high=1)

    def test_match_length_leftmost(self):
        ix = CompositeIndex(("a", "b", "c"))
        assert ix.match_length({"a", "b"}) == 2
        assert ix.match_length({"a", "c"}) == 1
        assert ix.match_length({"b", "c"}) == 0

    def test_rows_with_none_skipped(self):
        ix = CompositeIndex(("x", "y"))
        ix.add(("k", None), 0)
        ix.add(("k", 1), 1)
        assert ix.search({"x": "k"}).to_list() == [1]

    def test_mixed_type_values_do_not_crash_comparison(self):
        ix = CompositeIndex(("x",))
        ix.add((1,), 0)
        ix.add(("s",), 1)
        assert ix.search({"x": 1}).to_list() == [0]
        assert ix.search({"x": "s"}).to_list() == [1]

    def test_duplicate_columns_rejected(self):
        with pytest.raises(StorageError):
            CompositeIndex(("a", "a"))

    def test_prefix_compression_saves_bytes(self):
        ix = CompositeIndex(("tenant", "time"))
        for i in range(100):
            ix.add(("common-long-tenant-prefix", float(i)), i)
        compressed = ix.stored_bytes(prefix_compressed=True)
        raw = ix.stored_bytes(prefix_compressed=False)
        assert compressed < raw * 0.5

    @given(
        st.lists(
            st.tuples(st.sampled_from(["a", "b", "c"]), st.integers(0, 50)),
            max_size=80,
        ),
        st.sampled_from(["a", "b", "c"]),
        st.integers(0, 50),
        st.integers(0, 50),
    )
    def test_property_prefix_range_matches_bruteforce(self, rows, tenant, x, y):
        low, high = min(x, y), max(x, y)
        ix = CompositeIndex(("tenant", "v"))
        for row_id, values in enumerate(rows):
            ix.add(values, row_id)
        expected = sorted(
            row_id
            for row_id, (t, v) in enumerate(rows)
            if t == tenant and low <= v <= high
        )
        got = ix.search({"tenant": tenant}, range_column="v", low=low, high=high)
        assert got.to_list() == expected


class TestDocValues:
    def test_append_and_get(self):
        dv = DocValues()
        dv.append(0, "x")
        dv.append(1, "y")
        assert dv.get(0) == "x"
        assert dv.get(5, default="d") == "d"

    def test_sparse_gaps_padded(self):
        dv = DocValues()
        dv.append(0, "a")
        dv.append(3, "b")
        assert dv.get(1) is None
        assert dv.get(3) == "b"

    def test_base_row_id_offsets(self):
        dv = DocValues(base_row_id=100)
        dv.append(100, 1)
        dv.append(101, 2)
        assert dv.get(100) == 1
        assert dv.get(0) is None

    def test_scan_filters_posting_list(self):
        dv = DocValues()
        for row in range(10):
            dv.append(row, row % 3)
        rows = PostingList(range(10))
        assert dv.scan(rows, lambda v: v == 0).to_list() == [0, 3, 6, 9]

    def test_scan_reads_none_outside_the_column(self):
        """Rows before the base, in a gap, or past a sparse column's end."""
        dv = DocValues(base_row_id=10)
        dv.append(10, "a")
        dv.append(13, "b")
        rows = PostingList([8, 10, 11, 13, 15])
        assert dv.scan(rows, lambda v: v is not None).to_list() == [10, 13]
        assert dv.scan(rows, lambda v: v is None).to_list() == [8, 11, 15]
        assert dv.scan(rows, lambda v: v != "a").to_list() == [8, 11, 13, 15]

    def test_full_scan(self):
        dv = DocValues()
        for row in range(6):
            dv.append(row, row)
        assert dv.full_scan(lambda v: v is not None and v > 3).to_list() == [4, 5]

    def test_distinct_count_ignores_none(self):
        dv = DocValues()
        dv.append(0, "a")
        dv.append(2, "a")
        dv.append(3, "b")
        assert dv.distinct_count() == 2

"""Tests for the index structures: inverted, sorted, composite, doc values."""

from __future__ import annotations

import struct
from itertools import takewhile

import pytest
from hypothesis import given, strategies as st

from repro.errors import PlanningError, StorageError
from repro.storage import CompositeIndex, DocValues, InvertedIndex, PostingList, SortedIndex
from repro.storage.analysis import StandardAnalyzer, tokenize


@st.composite
def _partitions(draw, rows: list[int]) -> tuple[list[list[int]], frozenset, bool]:
    """Cut distinct *rows* into the rows of sealed parts a merge takes in
    row order: consecutive runs, or — *interleaved* — any row in any part.
    Also draws the rows the merge drops (deleted after they were indexed)."""
    rows = sorted(set(rows))
    interleaved = draw(st.booleans())
    parts: list[list[int]] = [[]]
    for row in rows:
        if interleaved:
            index = draw(st.integers(0, 3))
            parts += [[] for _ in range(index + 1 - len(parts))]
            parts[index].append(row)
        else:
            if parts[-1] and draw(st.booleans()):
                parts.append([])
            parts[-1].append(row)
    dropped = frozenset(row for row in rows if draw(st.sampled_from([False, False, True])))
    return parts, dropped, interleaved


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
        assert list(ix.postings("x")) == [1, 5, 9]

    def test_duplicate_row_id_collapsed(self):
        ix = InvertedIndex()
        ix.add("x", 3)
        ix.add("x", 3)
        assert len(ix.postings("x")) == 1

    def test_missing_term_empty(self):
        assert not InvertedIndex().postings("nope")

    def test_doc_frequency(self):
        """A term's postings list holds one row per document with it."""
        ix = InvertedIndex()
        ix.add_all(["a", "b"], 1)
        ix.add("a", 2)
        ix.add("a", 2)
        assert len(ix.postings("a")) == 2
        assert len(ix.postings("b")) == 1
        assert len(ix.postings("c")) == 0

    def test_memory_terms_counts_pairs(self):
        ix = InvertedIndex()
        ix.add_all(["a", "b", "c"], 1)
        ix.add("a", 2)
        assert ix.memory_terms() == 4

    def test_postings_snapshot_stable(self):
        ix = InvertedIndex()
        ix.add("a", 1)
        snapshot = ix.postings("a")
        assert list(snapshot) == [1]
        ix.add("a", 2)
        assert list(ix.postings("a")) == [1, 2]
        assert list(snapshot) == [1]

    def test_row_id_past_int64_raises_instead_of_wrapping(self):
        ix = InvertedIndex()
        ix.add("a", 1)
        with pytest.raises(struct.error):  # the second row packs both
            ix.add("a", 2**63)
        ix.add("a", 2)
        with pytest.raises(struct.error):  # later rows pack one
            ix.add("a", 2**63)
        assert list(ix.postings("a")) == [1, 2]

    @given(
        st.integers(0, 2**62),
        st.lists(
            st.tuples(
                st.one_of(
                    st.integers(-2, 2),
                    st.sampled_from(["a", "b", ""]),
                    st.booleans(),
                    st.tuples(st.sampled_from(["k", "q"]), st.sampled_from(["v", "w"])),
                ),
                st.sampled_from([0, 0, 1, 3]),  # row step: repeats are common
                st.booleans(),  # read the term back right after the add
            ),
            max_size=60,
        ),
    )
    def test_property_matches_dict_of_sorted_sets(self, base, operations):
        """Reads interleave with adds on the unsealed index: a bucket must
        still grow after it was read (a leaked buffer export would refuse)."""
        ix = InvertedIndex()
        model: dict[object, set[int]] = {}
        row = base
        for term, step, read_back in operations:
            row += step
            ix.add(term, row)
            model.setdefault(term, set()).add(row)
            if read_back:
                assert list(ix.postings(term)) == sorted(model[term])
                assert len(ix.postings(term)) == len(model[term])
        assert len(ix) == len(model)
        assert set(ix.terms()) == set(model)
        assert ix.memory_terms() == sum(len(rows) for rows in model.values())
        for term, rows in model.items():
            assert term in ix
            assert list(ix.postings(term)) == sorted(rows)
            assert len(ix.postings(term)) == len(rows)
        assert not ix.postings("never added")

    @given(st.data())
    def test_property_merging_sealed_parts_equals_one_index_over_their_union(self, data):
        """A term one part holds keeps its bucket (the object); a term
        several hold gets a new bucket in the same format — an int for one
        row, packed rows for more — and no part is written."""
        entries = data.draw(
            st.lists(st.tuples(st.sampled_from(["a", "b", 0, ("k", "v")]), st.integers(0, 30)),
                     max_size=60)
        )
        parts_rows, dropped, interleaved = data.draw(_partitions([row for _, row in entries]))
        union, parts = InvertedIndex(), []
        for rows in parts_rows:
            part = InvertedIndex()
            for term, row in sorted(entries, key=lambda entry: entry[1]):
                if row in rows:
                    part.add(term, row)
            parts.append(part)
        for term, row in sorted(entries, key=lambda entry: entry[1]):
            if row not in dropped:
                union.add(term, row)
        before = [{t: bytes(b) if isinstance(b, bytearray) else b for t, b in p._postings.items()}
                  for p in parts]
        merged = InvertedIndex.merged([(part, dropped) for part in parts], interleaved)
        assert {t: (type(b), b) for t, b in merged._postings.items()} == {
            t: (type(b), b) for t, b in union._postings.items()
        }
        assert [
            {t: bytes(b) if isinstance(b, bytearray) else b for t, b in p._postings.items()}
            for p in parts
        ] == before


class TestSortedIndex:
    def _index(self, values):
        ix = SortedIndex(block_size=4)
        for row, value in enumerate(values):
            ix.add(value, row)
        return ix

    def test_range_inclusive_both_ends(self):
        ix = self._index([10, 20, 30, 40, 50])
        assert list(ix.range(20, 40)) == [1, 2, 3]

    def test_range_exclusive_bounds(self):
        ix = self._index([10, 20, 30, 40])
        assert list(ix.range(10, 40, include_low=False, include_high=False)) == [1, 2]

    def test_open_ended_ranges(self):
        ix = self._index([1, 2, 3])
        assert list(ix.range(None, 2)) == [0, 1]
        assert list(ix.range(2, None)) == [1, 2]
        assert list(ix.range(None, None)) == [0, 1, 2]

    def test_point_lookup_with_duplicates(self):
        ix = self._index([5, 5, 5, 7])
        assert list(ix.point(5)) == [0, 1, 2]

    def test_empty_range(self):
        ix = self._index([1, 2, 3])
        assert not ix.range(10, 20)

    def test_min_max(self):
        ix = self._index([3, 1, 2])
        assert ix.min_value() == 1
        assert ix.max_value() == 3

    def test_add_after_seal_reseals(self):
        ix = self._index([1, 3])
        assert list(ix.range(1, 3)) == [0, 1]
        ix.add(2, 99)
        assert list(ix.range(2, 2)) == [99]

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
        assert list(ix.range(low, high)) == expected

    @given(st.data())
    def test_property_merging_sealed_parts_equals_one_index_over_their_union(self, data):
        values = data.draw(st.lists(st.sampled_from([-1.0, 0.0, 0.5, 2.0, 7.0]), max_size=80))
        parts_rows, dropped, _ = data.draw(_partitions(list(range(len(values)))))
        parts = []
        for rows in parts_rows:
            part = SortedIndex()
            part.add_all((values[row], row) for row in rows)
            part.seal()
            parts.append(part)
        union = SortedIndex()
        union.add_all((v, row) for row, v in enumerate(values) if row not in dropped)
        union.seal()
        before = [(list(p._values), list(p._rows)) for p in parts]
        merged = SortedIndex.merged([(part, dropped) for part in parts])
        assert (merged._values, merged._rows, merged._block_mins) == (
            union._values, union._rows, union._block_mins
        )
        assert merged.range(0.0, 2.0) == union.range(0.0, 2.0)
        assert [(p._values, p._rows) for p in parts] == before


def _nested_key(values) -> tuple:
    """The key encoding ``CompositeIndex`` used before flat keys — a tuple of
    ``(type rank, value)`` parts — kept here as the ordering oracle."""
    parts = []
    for value in values:
        if isinstance(value, bool):
            parts.append((0, int(value)))
        elif isinstance(value, (int, float)):
            parts.append((0, float(value)))
        elif isinstance(value, str):
            parts.append((1, value))
        else:
            parts.append((2, repr(value)))
    return tuple(parts)


def _held(values) -> tuple:
    """The values a row's composite key holds: those before its first None."""
    return tuple(takewhile(lambda value: value is not None, values))


_COLUMN_VALUES = st.one_of(
    st.booleans(),
    st.integers(-2, 3),
    st.sampled_from([-1.5, 0.0, 0.5, 2.0, 1e9]),
    st.sampled_from(["", "a", "ab", "b", "1"]),
    st.sampled_from([b"x", (1, 2), frozenset()]),  # "other": ordered by repr
)


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
        assert list(ix.search({"tenant": "a"})) == [0, 1, 2]

    def test_prefix_plus_range(self):
        ix = self._index()
        result = ix.search({"tenant": "a"}, range_column="time", low=2.0, high=3.0)
        assert list(result) == [1, 2]

    def test_range_exclusive_bounds(self):
        ix = self._index()
        result = ix.search(
            {"tenant": "a"}, range_column="time", low=1.0, high=3.0,
            include_low=False, include_high=False,
        )
        assert list(result) == [1]

    def test_full_equality_both_columns(self):
        ix = self._index()
        assert list(ix.search({"tenant": "b", "time": 9.0})) == [4]

    def test_leftmost_principle_violation_raises(self):
        ix = self._index()
        with pytest.raises(PlanningError):
            ix.search({"time": 1.0})  # skips the leading column

    def test_range_on_wrong_column_raises(self):
        ix = self._index()
        with pytest.raises(PlanningError):
            ix.search({"tenant": "a"}, range_column="other", low=0, high=1)

    def test_row_lacking_a_column_is_keyed_by_the_columns_before_it(self):
        ix = CompositeIndex(("x", "y"))
        ix.add(("k", None), 0)
        ix.add(("k", 1), 1)
        ix.add((None, 1), 2)  # lacks the first column: not indexed
        assert len(ix) == 2
        assert list(ix.search({"x": "k"})) == [0, 1]
        assert list(ix.search({"x": "k", "y": 1})) == [1]
        # A range on y never matches the row lacking y, whichever bound is open.
        assert list(ix.search({"x": "k"}, range_column="y")) == [1]
        assert list(ix.search({"x": "k"}, range_column="y", high=5)) == [1]
        assert list(ix.search({"x": "k"}, range_column="y", low=0)) == [1]

    def test_mixed_type_values_do_not_crash_comparison(self):
        ix = CompositeIndex(("x",))
        ix.add((1,), 0)
        ix.add(("s",), 1)
        assert list(ix.search({"x": 1})) == [0]
        assert list(ix.search({"x": "s"})) == [1]

    def test_duplicate_columns_rejected(self):
        with pytest.raises(StorageError):
            CompositeIndex(("a", "a"))

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
        assert list(got) == expected

    @given(st.data())
    def test_property_flat_keys_order_like_nested_keys(self, data):
        columns = ("c0", "c1", "c2")[: data.draw(st.integers(1, 3))]
        rows = data.draw(
            st.lists(
                st.tuples(*[st.one_of(st.none(), _COLUMN_VALUES)] * len(columns)),
                max_size=40,
            )
        )
        ix = CompositeIndex(columns)
        for row_id, values in enumerate(rows):
            ix.add(values, row_id)
        oracle = sorted(
            (_nested_key(_held(values)), row_id)
            for row_id, values in enumerate(rows)
            if values[0] is not None
        )
        assert len(ix) == len(oracle)

        consumed = data.draw(st.integers(0, len(columns)))
        prefix = data.draw(st.tuples(*[_COLUMN_VALUES] * consumed))
        bounds = {}
        if consumed < len(columns) and data.draw(st.booleans()):
            bounds = {
                "range_column": columns[consumed],
                "low": data.draw(st.one_of(st.none(), _COLUMN_VALUES)),
                "high": data.draw(st.one_of(st.none(), _COLUMN_VALUES)),
                "include_low": data.draw(st.booleans()),
                "include_high": data.draw(st.booleans()),
            }

        def selected(key: tuple) -> bool:
            if key[:consumed] != _nested_key(prefix):
                return False
            if not bounds:
                return True
            if len(key) == consumed:  # the row lacks the range column
                return False
            part = key[consumed]
            if bounds["low"] is not None:
                (low,) = _nested_key([bounds["low"]])
                if part < low or (part == low and not bounds["include_low"]):
                    return False
            if bounds["high"] is not None:
                (high,) = _nested_key([bounds["high"]])
                if part > high or (part == high and not bounds["include_high"]):
                    return False
            return True

        got = ix.search(dict(zip(columns, prefix)), **bounds)
        assert list(got) == sorted(row for key, row in oracle if selected(key))

    @given(st.data())
    def test_property_search_matches_a_filter_over_optional_columns(self, data):
        """Rows may lack any column. Equality on a prefix finds exactly the
        rows holding those values, and a range on the next column never
        finds a row lacking it, whichever bound is open."""
        columns = ("c0", "c1", "c2")
        value = st.one_of(st.none(), st.integers(0, 3))
        rows = data.draw(st.lists(st.tuples(value, value, value), max_size=40))
        ix = CompositeIndex(columns)
        for row_id, row in enumerate(rows):
            ix.add(row, row_id)
        consumed = data.draw(st.integers(0, len(columns)))
        prefix = data.draw(st.tuples(*[st.integers(0, 3)] * consumed))
        bounds = {}
        # With no equality at all, a search needs a range on the first column.
        if consumed < len(columns) and (consumed == 0 or data.draw(st.booleans())):
            bounds = {
                "range_column": columns[consumed],
                "low": data.draw(value),
                "high": data.draw(value),
                "include_low": data.draw(st.booleans()),
                "include_high": data.draw(st.booleans()),
            }

        def matches(row) -> bool:
            if row[:consumed] != prefix:
                return False
            if not bounds:
                return True
            held, low, high = row[consumed], bounds["low"], bounds["high"]
            if held is None:
                return False
            if low is not None and (held < low or (held == low and not bounds["include_low"])):
                return False
            return high is None or held < high or (held == high and bounds["include_high"])

        got = ix.search(dict(zip(columns, prefix)), **bounds)
        assert list(got) == [row_id for row_id, row in enumerate(rows) if matches(row)]

        # Merging sealed parts of the rows equals one index over their union.
        parts_rows, dropped, _ = data.draw(_partitions(list(range(len(rows)))))
        parts = []
        for members in parts_rows:
            part = CompositeIndex(columns)
            for row_id in members:
                part.add(rows[row_id], row_id)
            part.seal()
            parts.append(part)
        union = CompositeIndex(columns)
        for row_id, row in enumerate(rows):
            if row_id not in dropped:
                union.add(row, row_id)
        union.seal()
        merged = CompositeIndex.merged(columns, [(part, dropped) for part in parts])
        assert (merged._keys, merged._rows) == (union._keys, union._rows)
        assert merged.search(dict(zip(columns, prefix)), **bounds) == union.search(
            dict(zip(columns, prefix)), **bounds
        )


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
        assert list(dv.scan(rows, lambda v: v == 0)) == [0, 3, 6, 9]

    def test_scan_reads_none_outside_the_column(self):
        """Rows before the base, in a gap, or past a sparse column's end."""
        dv = DocValues(base_row_id=10)
        dv.append(10, "a")
        dv.append(13, "b")
        rows = PostingList([8, 10, 11, 13, 15])
        assert list(dv.scan(rows, lambda v: v is not None)) == [10, 13]
        assert list(dv.scan(rows, lambda v: v is None)) == [8, 11, 15]
        assert list(dv.scan(rows, lambda v: v != "a")) == [8, 11, 13, 15]

    def test_full_scan(self):
        dv = DocValues()
        for row in range(6):
            dv.append(row, row)
        assert list(dv.full_scan(lambda v: v is not None and v > 3)) == [4, 5]

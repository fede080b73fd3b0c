"""Inverted index: term → posting list.

Used for keyword fields (exact terms) and analyzed text fields (tokens from
the analyzer). This is the "Index Search" access path in the paper's query
plans (Figure 7): one lookup produces the posting list of rows containing a
term.
"""

from __future__ import annotations

from array import array
from struct import Struct
from typing import Iterable, Iterator

from repro.storage.postings import PostingList

_ROW = Struct("=q")
_ROW_PAIR = Struct("=qq")


class InvertedIndex:
    """Mutable term dictionary mapping terms to sorted row-id postings.

    Mutability is only used while a segment is being built in the in-memory
    buffer; once sealed into a :class:`~repro.storage.segment.Segment` the
    index is never written again (Lucene's immutable-segment model).

    A term maps to the bare row id while one row holds it and, from the
    second row on, to a ``bytearray`` of packed int64 rows. Neither is an
    object the cyclic collector tracks, so the index costs a collection one
    container — the term dictionary — however many terms it holds; most
    terms of a transaction log (ids, name tokens) never see a second row.
    Packing raises on a row id past int64, it does not wrap.
    """

    def __init__(self) -> None:
        self._postings: dict[object, int | bytearray] = {}

    def __len__(self) -> int:
        return len(self._postings)

    def __contains__(self, term: object) -> bool:
        return term in self._postings

    def terms(self) -> Iterator[object]:
        return iter(self._postings)

    def add(self, term: object, row_id: int) -> None:
        """Index *row_id* under *term*. Row ids must arrive non-decreasing
        (they do: the buffer assigns them sequentially)."""
        self.add_all((term,), row_id)

    def add_all(self, terms: Iterable[object], row_id: int) -> None:
        """:meth:`add` for each of *terms*: a term the row already holds
        (a repeated token) is indexed once."""
        postings = self._postings
        packed = None
        for term in terms:
            bucket = postings.get(term)
            if bucket is None:
                postings[term] = row_id
            elif isinstance(bucket, bytearray):
                if packed is None:
                    packed = _ROW.pack(row_id)
                if not bucket.endswith(packed):
                    bucket += packed
            elif bucket != row_id:
                postings[term] = bytearray(_ROW_PAIR.pack(bucket, row_id))

    @classmethod
    def merged(
        cls, parts: list[tuple[InvertedIndex, frozenset]], interleaved: bool
    ) -> InvertedIndex:
        """One index over *parts* — sealed indexes, each with the rows to
        drop from it, listed in row order. A term only one part holds keeps
        that part's bucket, the object itself: a sealed bucket is never
        written again, so sharing it is safe. A term several parts hold gets
        a new bucket of their rows concatenated, or sorted when the parts'
        rows are *interleaved*. Python runs once per term that several parts
        share and per term of a part with rows to drop; the rest is dict and
        set operations."""
        merged = cls()
        postings = merged._postings
        dicts = [_without(ix._postings, dropped) if dropped else ix._postings
                 for ix, dropped in parts]
        shared: set = set()
        for terms in dicts:
            shared |= postings.keys() & terms.keys()
            postings.update(terms)
        for term in shared:
            postings[term] = _joined(
                [terms[term] for terms in dicts if term in terms], interleaved
            )
        return merged

    def postings(self, term: object) -> PostingList:
        """Return the posting list for *term* (empty when absent)."""
        bucket = self._postings.get(term)
        if bucket is None:
            return PostingList.empty()
        if isinstance(bucket, bytearray):
            # The view dies with this expression: a bytearray with a live
            # export refuses to grow, and an unsealed index is still written.
            return PostingList(memoryview(bucket).cast("q"), presorted=True)
        return PostingList((bucket,), presorted=True)

    def memory_terms(self) -> int:
        """Approximate index size in stored (term, row) pairs — the storage
        overhead metric used by frequency-based indexing (§6.3.3)."""
        return sum(map(_rows_in, self._postings.values()))


def _rows_of(bucket: int | bytearray) -> list[int]:
    if isinstance(bucket, bytearray):
        return memoryview(bucket).cast("q").tolist()
    return [bucket]


def _bucket(rows: list[int]) -> int | bytearray:
    """The bucket of sorted, distinct, non-empty *rows*."""
    return bytearray(array("q", rows)) if len(rows) > 1 else rows[0]


def _joined(buckets: list[int | bytearray], interleaved: bool) -> bytearray:
    """A new bucket of *buckets*' rows, distinct across them; none is
    written."""
    if interleaved:
        rows: list[int] = []
        for bucket in buckets:
            rows += _rows_of(bucket)
        rows.sort()
        return _bucket(rows)
    return bytearray().join(
        [b if isinstance(b, bytearray) else _ROW.pack(b) for b in buckets]
    )


def _without(postings: dict, dropped: frozenset) -> dict:
    """*postings* minus the *dropped* rows; a bucket holding none of them is
    kept as it is, and a term left with no row goes."""
    kept = {}
    for term, bucket in postings.items():
        if isinstance(bucket, bytearray):
            if dropped.isdisjoint(memoryview(bucket).cast("q")):
                kept[term] = bucket
            else:
                rows = [row for row in _rows_of(bucket) if row not in dropped]
                if rows:
                    kept[term] = _bucket(rows)
        elif bucket not in dropped:
            kept[term] = bucket
    return kept


def _rows_in(bucket: int | bytearray | None) -> int:
    if bucket is None:
        return 0
    return len(bucket) // _ROW.size if isinstance(bucket, bytearray) else 1

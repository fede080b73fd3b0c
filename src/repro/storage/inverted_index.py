"""Inverted index: term → posting list.

Used for keyword fields (exact terms) and analyzed text fields (tokens from
the analyzer). This is the "Index Search" access path in the paper's query
plans (Figure 7): one lookup produces the posting list of rows containing a
term.
"""

from __future__ import annotations

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
        postings = self._postings
        bucket = postings.get(term)
        if bucket is None:
            postings[term] = row_id
        elif isinstance(bucket, bytearray):
            packed = _ROW.pack(row_id)
            if not bucket.endswith(packed):
                bucket += packed
        elif bucket != row_id:
            postings[term] = bytearray(_ROW_PAIR.pack(bucket, row_id))

    def add_all(self, terms: Iterable[object], row_id: int) -> None:
        for term in terms:
            self.add(term, row_id)

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

    def doc_frequency(self, term: object) -> int:
        return _rows_in(self._postings.get(term))

    def memory_terms(self) -> int:
        """Approximate index size in stored (term, row) pairs — the storage
        overhead metric used by frequency-based indexing (§6.3.3)."""
        return sum(map(_rows_in, self._postings.values()))


def _rows_in(bucket: int | bytearray | None) -> int:
    if bucket is None:
        return 0
    return len(bucket) // _ROW.size if isinstance(bucket, bytearray) else 1

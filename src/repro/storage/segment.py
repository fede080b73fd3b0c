"""Immutable segments.

A segment is a sealed batch of documents with all its index structures
(inverted indexes per field, sorted numeric indexes, composite indexes, doc
values) plus a live-docs bitmap for deletes. Segments are produced by the
in-memory buffer at refresh time and combined by the merge policy; they are
never modified except for marking deletions — Lucene's model, which is what
makes physical replication (shipping whole segment files) correct.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, NamedTuple

from repro.errors import StorageError
from repro.storage.analysis import StandardAnalyzer
from repro.storage.composite import CompositeIndex
from repro.storage.document import (
    _ATTRIBUTES,
    _KEYWORD,
    _NUMERIC,
    _TEXT,
    Document,
    Schema,
    parse_attributes,
    subattribute_term,
    subattribute_terms,
)
from repro.storage.docvalues import DocValues
from repro.storage.inverted_index import InvertedIndex
from repro.storage.postings import PostingList
from repro.storage.sorted_index import SortedIndex

_segment_ids = itertools.count(1)

# Every segment tokenises text with the same analyzer, so a merged segment
# holds the tokens its inputs were indexed with.
_ANALYZER = StandardAnalyzer()

# What a row that holds no document stores: a slot a merge keeps for a
# reclaimed delete or for another segment's row, one source shared by every
# such row. Never live, never indexed.
_TOMBSTONE: dict = {}


@dataclass(frozen=True)
class SegmentSpec:
    """Index configuration shared by every segment of a shard.

    Attributes:
        schema: field types.
        composite_columns: column tuples to build composite indexes on.
        indexed_subattributes: names of "attributes" sub-attributes that get
            their own inverted-index terms (frequency-based indexing, §3.2).
            None means index every sub-attribute (the expensive default ESDB
            moves away from).
    """

    schema: Schema
    composite_columns: tuple = ()
    indexed_subattributes: frozenset | None = None


class LiveRun(NamedTuple):
    """What one segment contributes to a merge: its first and last live row
    and the rows deleted after they were indexed — their index entries are
    still in the segment's structures. Rows the segment holds no document
    for (a merge's padding) are dead but carry no entry, so they are not
    listed."""

    segment: "Segment"
    first: int
    last: int
    dropped: frozenset


class Segment:
    """One immutable segment of a shard.

    A row stores its document's source dict and nothing else: a dict of
    scalars is one the cyclic collector does not track, and the row's id
    is its source's id field. :meth:`iter_live` builds the
    :class:`Document` view when asked.
    """

    def __init__(
        self,
        spec: SegmentSpec,
        base_row_id: int,
        generation: int = 0,
    ) -> None:
        self.segment_id = next(_segment_ids)
        self.spec = spec
        self.base_row_id = base_row_id
        self.generation = generation  # merge depth: 0 = fresh refresh
        self._docs: list[dict] = []  # each row's source
        self._live: list[bool] = []
        self._deleted = 0  # rows of _live that are False
        self._term_indexes: dict[str, InvertedIndex] = {}
        self._numeric_indexes: dict[str, SortedIndex] = {}
        self._composites: dict[str, CompositeIndex] = {}
        self._doc_values: dict[str, DocValues] = {}
        self._subattr_index = InvertedIndex()
        for columns in spec.composite_columns:
            index = CompositeIndex(columns)
            self._composites[index.name] = index
        #: While the segment is built: each field name seen so far →
        #: ``(type, add, store)``, the field's type, the adder of the
        #: structure its values go into (a term index's ``add_all`` or a
        #: sorted index's ``add_pair``) and its doc-values column's
        #: ``append``. Resolved the first time the name carries a value;
        #: None once sealed.
        self._plan: dict[str, tuple] | None = {}

    # -- sizes -------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._docs)

    @property
    def live_count(self) -> int:
        return len(self._live) - self._deleted

    @property
    def sealed(self) -> bool:
        return self._plan is None

    def row_ids(self) -> range:
        return range(self.base_row_id, self.base_row_id + len(self._docs))

    # -- construction -----------------------------------------------------------
    def add_document(self, doc: Document) -> tuple[int, int, tuple[str, ...]]:
        """Index one document — the only place a written document is
        parsed — and store its source. Returns ``(row_id, entries,
        subattr_names)``: the shard-global row id, the index entries written
        (the unit of ``EngineStats.indexing_cost``) and every sub-attribute
        name the document carries, indexed or not. The last two are
        by-products for the caller to consume; nothing parsed is retained
        on the document. Every entry is appended to a column an index
        already owns: a string term, a float, a row id."""
        plan = self._plan
        if plan is None:
            raise StorageError(f"segment {self.segment_id} is sealed")
        row_id = self.base_row_id + len(self._docs)
        source = doc.source
        self._docs.append(source)
        self._live.append(True)
        entries = 0
        subattr_names: tuple[str, ...] = ()
        for name, value in source.items():
            if value is None:
                continue
            entry = plan.get(name)
            if entry is None:
                entry = self._plan_field(name)
            ftype, add, store = entry
            if ftype is _NUMERIC:
                number = float(value)
                add(number, row_id)
                entries += 1
                if isinstance(value, str):
                    # A numeric string: a scan must see what the index holds.
                    value = number
            else:
                if ftype is _KEYWORD:
                    terms = (value,)
                elif ftype is _TEXT:
                    terms = _ANALYZER.analyze(str(value))
                else:
                    # Only sub-attributes selected by frequency-based
                    # indexing receive index terms; unindexed ones stay
                    # queryable by (slow) scan over the raw column in doc
                    # values.
                    subattrs = parse_attributes(str(value))
                    subattr_names += tuple(subattrs)
                    terms = subattribute_terms(subattrs, self.spec.indexed_subattributes)
                add(terms, row_id)
                entries += len(terms)
            # Value kept in doc values so scans and LIKE/wildcard work.
            store(row_id, value)
        for composite in self._composites.values():
            values = [source.get(column) for column in composite.columns]
            composite.add(values, row_id)
            entries += 1
        return row_id, entries, subattr_names

    def _plan_field(self, name: str) -> tuple:
        """Resolve *name*'s plan entry, creating the structures it writes:
        a term index (KEYWORD, TEXT), a sorted index (NUMERIC) or the shared
        sub-attribute index (ATTRIBUTES), and a doc-values column."""
        ftype = self.spec.schema.type_of(name)
        if ftype is _NUMERIC:
            numbers = self._numeric_indexes[name] = SortedIndex()
            add = numbers.add_pair
        elif ftype is _ATTRIBUTES:
            add = self._subattr_index.add_all
        else:
            terms = self._term_indexes[name] = InvertedIndex()
            add = terms.add_all
        column = self._doc_values[name] = DocValues(self.base_row_id)
        entry = self._plan[name] = (ftype, add, column.append)
        return entry

    def seal(self) -> None:
        """Freeze the segment: no more writes; sort numeric/composite blocks
        and drop the field plan."""
        for index in self._numeric_indexes.values():
            index.seal()
        for composite in self._composites.values():
            composite.seal()
        self._plan = None

    @classmethod
    def merged(
        cls,
        spec: SegmentSpec,
        rows: range,
        generation: int,
        runs: list[LiveRun],
        interleaved: bool,
    ) -> Segment:
        """A sealed segment over *rows* holding the live rows of *runs*,
        listed by first live row; every other row is a tombstone. Each
        structure merges the inputs' own: nothing is re-parsed and no input
        is written. *interleaved* says the runs' live rows overlap."""
        merged = cls(spec, rows.start, generation=generation)
        docs = [_TOMBSTONE] * len(rows)
        live = [False] * len(rows)
        for run in runs:
            segment = run.segment
            shift = segment.base_row_id - rows.start
            for offset in itertools.compress(range(len(segment)), segment._live):
                docs[shift + offset] = segment._docs[offset]
                live[shift + offset] = True
        merged._docs, merged._live = docs, live
        merged._deleted = live.count(False)

        for name in dict.fromkeys(n for run in runs for n in run.segment._doc_values):
            holders = [run for run in runs if name in run.segment._doc_values]
            column = DocValues.merged(
                rows.start,
                [(r.segment._doc_values[name], r.first, r.last, r.dropped) for r in holders],
                interleaved,
            )
            # A field has indexes exactly where it has a column: add_document
            # creates both for every value (a text of stopwords only gets an
            # empty term index), so no live row holding it means neither.
            if column is None:
                continue
            merged._doc_values[name] = column
            terms = [
                (r.segment._term_indexes[name], r.dropped)
                for r in holders
                if name in r.segment._term_indexes
            ]
            if terms:
                merged._term_indexes[name] = InvertedIndex.merged(terms, interleaved)
            numbers = [
                (r.segment._numeric_indexes[name], r.dropped)
                for r in holders
                if name in r.segment._numeric_indexes
            ]
            if numbers:
                merged._numeric_indexes[name] = SortedIndex.merged(numbers)
        merged._subattr_index = InvertedIndex.merged(
            [(run.segment._subattr_index, run.dropped) for run in runs], interleaved
        )
        for name, composite in merged._composites.items():
            merged._composites[name] = CompositeIndex.merged(
                composite.columns,
                [(run.segment._composites[name], run.dropped) for run in runs],
            )
        merged._plan = None
        return merged

    # -- deletes -----------------------------------------------------------------
    def mark_deleted(self, row_id: int) -> bool:
        """Mark *row_id* deleted; returns False when out of range."""
        index = row_id - self.base_row_id
        if 0 <= index < len(self._live):
            was_live = self._live[index]
            self._live[index] = False
            self._deleted += was_live
            return was_live
        return False

    def filter_live(self, rows: PostingList) -> PostingList:
        """The live rows of *rows*, which must all lie in this segment's row
        range (its own indexes' postings do; the first and last row are
        checked). One look at the delete counter when nothing was deleted —
        the input comes back untouched — and one pass over the live bitmap
        otherwise."""
        live, base = self._live, self.base_row_id
        if not rows.within(base, base + len(live)):
            raise StorageError(f"rows outside segment {self.segment_id}'s row range")
        if not self._deleted:
            return rows
        return PostingList([r for r in rows if live[r - base]], presorted=True)

    # -- access paths ---------------------------------------------------------
    def term_postings(self, field_name: str, term: object) -> PostingList:
        index = self._term_indexes.get(field_name)
        if index is None:
            return PostingList.empty()
        return self.filter_live(index.postings(term))

    def text_postings(self, field_name: str, text: str) -> PostingList:
        """Match documents containing *all* analyzed tokens of *text*."""
        index = self._term_indexes.get(field_name)
        if index is None:
            return PostingList.empty()
        tokens = _ANALYZER.analyze(text)
        if not tokens:
            return PostingList.empty()
        lists = [index.postings(token) for token in tokens]
        return self.filter_live(PostingList.intersect_all(lists))

    def numeric_range(self, field_name: str, low, high, **bounds) -> PostingList:
        index = self._numeric_indexes.get(field_name)
        if index is None:
            return PostingList.empty()
        return self.filter_live(index.range(low, high, **bounds))

    def subattribute_postings(self, key: str, value: str, term: str | None = None) -> PostingList:
        """The live rows whose sub-attribute *key* holds *value*; *term* is
        their :func:`subattribute_term` when the caller encoded it already."""
        if term is None:
            term = subattribute_term(key, value)
        return self.filter_live(self._subattr_index.postings(term))

    def has_subattribute_index(self, key: str) -> bool:
        allowed = self.spec.indexed_subattributes
        return allowed is None or key in allowed

    def composite(self, name: str) -> CompositeIndex | None:
        return self._composites.get(name)

    def doc_values(self, field_name: str) -> DocValues | None:
        return self._doc_values.get(field_name)

    def source(self, row_id: int) -> dict | None:
        """The stored source of live row *row_id*; None for a row that is
        not live here."""
        index = row_id - self.base_row_id
        if 0 <= index < len(self._docs) and self._live[index]:
            return self._docs[index]
        return None


    def live_run(self) -> LiveRun | None:
        """This segment's part in a merge; None when no row is live."""
        if not self.live_count:
            return None
        base, docs, live = self.base_row_id, self._docs, self._live
        dropped: frozenset = frozenset()
        if self._deleted:
            dropped = frozenset(
                base + offset
                for offset, alive in enumerate(live)
                if not alive and docs[offset] is not _TOMBSTONE
            )
        return LiveRun(
            self,
            base + live.index(True),
            base + len(live) - 1 - live[::-1].index(True),
            dropped,
        )

    def iter_live(self) -> Iterator[tuple[int, Document]]:
        id_field = self.spec.schema.id_field
        for offset, (source, live) in enumerate(zip(self._docs, self._live)):
            if live:
                yield self.base_row_id + offset, Document(source.get(id_field), source)

    # -- accounting -----------------------------------------------------------
    def index_memory(self) -> int:
        """Stored (term, row) pairs across all inverted indexes — the index
        cost frequency-based indexing trades against query latency."""
        total = sum(ix.memory_terms() for ix in self._term_indexes.values())
        total += self._subattr_index.memory_terms()
        return total

    def approx_bytes(self) -> int:
        """Rough segment size used by the merge policy and replication model."""
        return sum(len(repr(source)) for source in self._docs)

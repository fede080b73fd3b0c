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
from typing import Iterator

from repro.errors import StorageError
from repro.storage.analysis import StandardAnalyzer
from repro.storage.composite import CompositeIndex
from repro.storage.document import Document, FieldType, Schema, parse_attributes
from repro.storage.docvalues import DocValues
from repro.storage.inverted_index import InvertedIndex
from repro.storage.postings import PostingList
from repro.storage.sorted_index import SortedIndex

_segment_ids = itertools.count(1)


@dataclass(frozen=True)
class SegmentSpec:
    """Index configuration shared by every segment of a shard.

    Attributes:
        schema: field types.
        composite_columns: column tuples to build composite indexes on.
        scan_columns: columns kept only in doc values for sequential scan.
        indexed_subattributes: names of "attributes" sub-attributes that get
            their own inverted-index terms (frequency-based indexing, §3.2).
            None means index every sub-attribute (the expensive default ESDB
            moves away from).
    """

    schema: Schema
    composite_columns: tuple = ()
    scan_columns: frozenset = frozenset()
    indexed_subattributes: frozenset | None = None


class Segment:
    """One immutable segment of a shard."""

    def __init__(
        self,
        spec: SegmentSpec,
        base_row_id: int,
        analyzer: StandardAnalyzer | None = None,
        generation: int = 0,
    ) -> None:
        self.segment_id = next(_segment_ids)
        self.spec = spec
        self.base_row_id = base_row_id
        self.generation = generation  # merge depth: 0 = fresh refresh
        self._analyzer = analyzer or StandardAnalyzer()
        self._docs: list[Document] = []
        self._live: list[bool] = []
        self._deleted = 0  # rows of _live that are False
        self._term_indexes: dict[str, InvertedIndex] = {}
        self._numeric_indexes: dict[str, SortedIndex] = {}
        self._composites: dict[str, CompositeIndex] = {}
        self._doc_values: dict[str, DocValues] = {}
        self._subattr_index = InvertedIndex()
        self._sealed = False
        for columns in spec.composite_columns:
            index = CompositeIndex(columns)
            self._composites[index.name] = index

    # -- sizes -------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._docs)

    @property
    def live_count(self) -> int:
        return len(self._live) - self._deleted

    @property
    def deleted_count(self) -> int:
        return self._deleted

    @property
    def sealed(self) -> bool:
        return self._sealed

    def row_ids(self) -> range:
        return range(self.base_row_id, self.base_row_id + len(self._docs))

    # -- construction -----------------------------------------------------------
    def add_document(self, doc: Document) -> tuple[int, int, tuple[str, ...]]:
        """Index one document — the only place a written document is
        parsed. Returns ``(row_id, entries, subattr_names)``: the shard-global
        row id, the index entries written (the unit of
        ``EngineStats.indexing_cost``) and every sub-attribute name the
        document carries, indexed or not. The last two are by-products for
        the caller to consume; nothing parsed is retained on the document."""
        if self._sealed:
            raise StorageError(f"segment {self.segment_id} is sealed")
        row_id = self.base_row_id + len(self._docs)
        self._docs.append(doc)
        self._live.append(True)
        schema = self.spec.schema
        entries = 0
        subattr_names: tuple[str, ...] = ()
        for name, value in doc.source.items():
            if value is None:
                continue
            ftype = schema.type_of(name)
            if ftype is FieldType.KEYWORD:
                self._term_index(name).add(value, row_id)
                entries += 1
            elif ftype is FieldType.NUMERIC:
                number = float(value)
                self._numeric_index(name).add(number, row_id)
                entries += 1
                if isinstance(value, str):
                    # A numeric string: a scan must see what the index holds.
                    value = number
            elif ftype is FieldType.TEXT:
                tokens = self._analyzer.analyze(str(value))
                self._term_index(name).add_all(tokens, row_id)
                entries += len(tokens)
            elif ftype is FieldType.ATTRIBUTES:
                # Only sub-attributes selected by frequency-based indexing
                # receive index terms; unindexed ones stay queryable by
                # (slow) scan over the raw column in doc values.
                allowed = self.spec.indexed_subattributes
                subattrs = parse_attributes(str(value))
                subattr_names += tuple(subattrs)
                for key, subvalue in subattrs.items():
                    if allowed is None or key in allowed:
                        self._subattr_index.add((key, subvalue), row_id)
                        entries += 1
            # Value kept in doc values so scans and LIKE/wildcard work.
            self._dv(name).append(row_id, value)
        for composite in self._composites.values():
            values = [doc.get(column) for column in composite.columns]
            composite.add(values, row_id)
            entries += 1
        return row_id, entries, subattr_names

    def seal(self) -> None:
        """Freeze the segment: no more writes; sort numeric/composite blocks."""
        for index in self._numeric_indexes.values():
            index.seal()
        for composite in self._composites.values():
            composite.seal()
        self._sealed = True

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

    def is_live(self, row_id: int) -> bool:
        index = row_id - self.base_row_id
        return 0 <= index < len(self._live) and self._live[index]

    def filter_live(self, rows: PostingList) -> PostingList:
        """The live rows of *rows*, which must all lie in this segment's row
        range (its own indexes' postings do; two bisections check it). One
        look at the delete counter when nothing was deleted — the input comes
        back untouched — and one pass over the live bitmap otherwise."""
        live, base = self._live, self.base_row_id
        if len(rows.between(base, base + len(live))) != len(rows):
            raise StorageError(f"rows outside segment {self.segment_id}'s row range")
        if not self._deleted:
            return rows
        return PostingList([r for r in rows if live[r - base]], presorted=True)

    # -- access paths ---------------------------------------------------------
    def _term_index(self, name: str) -> InvertedIndex:
        if name not in self._term_indexes:
            self._term_indexes[name] = InvertedIndex()
        return self._term_indexes[name]

    def _numeric_index(self, name: str) -> SortedIndex:
        if name not in self._numeric_indexes:
            self._numeric_indexes[name] = SortedIndex()
        return self._numeric_indexes[name]

    def _dv(self, name: str) -> DocValues:
        if name not in self._doc_values:
            self._doc_values[name] = DocValues(self.base_row_id)
        return self._doc_values[name]

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
        tokens = self._analyzer.analyze(text)
        if not tokens:
            return PostingList.empty()
        lists = [index.postings(token) for token in tokens]
        return self.filter_live(PostingList.intersect_all(lists))

    def numeric_range(self, field_name: str, low, high, **bounds) -> PostingList:
        index = self._numeric_indexes.get(field_name)
        if index is None:
            return PostingList.empty()
        return self.filter_live(index.range(low, high, **bounds))

    def subattribute_postings(self, key: str, value: str) -> PostingList:
        return self.filter_live(self._subattr_index.postings((key, value)))

    def has_subattribute_index(self, key: str) -> bool:
        allowed = self.spec.indexed_subattributes
        return allowed is None or key in allowed

    def composite(self, name: str) -> CompositeIndex | None:
        return self._composites.get(name)

    def composites(self) -> dict[str, CompositeIndex]:
        return dict(self._composites)

    def doc_values(self, field_name: str) -> DocValues | None:
        return self._doc_values.get(field_name)

    def get_document(self, row_id: int) -> Document | None:
        index = row_id - self.base_row_id
        if 0 <= index < len(self._docs) and self._live[index]:
            return self._docs[index]
        return None

    def iter_live(self) -> Iterator[tuple[int, Document]]:
        for offset, (doc, live) in enumerate(zip(self._docs, self._live)):
            if live:
                yield self.base_row_id + offset, doc

    # -- accounting -----------------------------------------------------------
    def index_memory(self) -> int:
        """Stored (term, row) pairs across all inverted indexes — the index
        cost frequency-based indexing trades against query latency."""
        total = sum(ix.memory_terms() for ix in self._term_indexes.values())
        total += self._subattr_index.memory_terms()
        return total

    def approx_bytes(self) -> int:
        """Rough segment size used by the merge policy and replication model."""
        return sum(len(repr(doc.source)) for doc in self._docs)

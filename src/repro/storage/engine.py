"""Per-shard storage engine.

Ties together the translog, in-memory buffer, segment list and merge policy
into one write/read path per shard:

* ``index``/``update``/``delete`` validate the document, append to the
  translog, then apply to the buffer or mark deletes;
* ``refresh`` seals the buffer into a segment (documents become searchable);
* ``flush`` advances the translog checkpoint (documents become durable in
  segments, log rotates);
* ``maybe_merge`` runs the merge policy;
* read-side helpers expose every access path the query layer plans over.

The engine also keeps CPU accounting (indexing cost, merge cost) that the
replication layer uses to demonstrate logical vs physical replication.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Mapping

from repro.cache import SegmentFilterCache, filter_key
from repro.errors import DocumentNotFoundError, StorageError
from repro.storage.analysis import StandardAnalyzer
from repro.storage.buffer import InMemoryBuffer
from repro.storage.composite import CompositeIndex
from repro.storage.document import Document, Schema
from repro.storage.merge import MergePolicy, TieredMergePolicy, merge_segments
from repro.storage.postings import PostingList
from repro.storage.segment import Segment, SegmentSpec
from repro.storage.translog import Translog
from repro.telemetry.runtime import NULL_TELEMETRY


@dataclass(frozen=True)
class EngineConfig:
    """Shard-engine configuration.

    Attributes:
        schema: field types for documents in this shard.
        composite_columns: composite indexes to maintain (§5.1).
        scan_columns: the "scan list" — low-cardinality columns answered by
            sequential scan over doc values instead of an index (§5.1).
        indexed_subattributes: frequency-based indexing selection for the
            "attributes" column; None indexes all sub-attributes.
        auto_refresh_every: refresh automatically after this many buffered
            docs (None = manual refresh only).
        filter_cache_bytes: byte budget of the per-shard segment filter
            cache (posting lists keyed by ``(segment_id, filter)``); None
            disables the cache.
    """

    schema: Schema
    composite_columns: tuple = ()
    scan_columns: frozenset = frozenset()
    indexed_subattributes: frozenset | None = None
    auto_refresh_every: int | None = 1024
    filter_cache_bytes: int | None = 4 * 1024 * 1024

    def spec(self) -> SegmentSpec:
        return SegmentSpec(
            schema=self.schema,
            composite_columns=self.composite_columns,
            scan_columns=self.scan_columns,
            indexed_subattributes=self.indexed_subattributes,
        )


@dataclass
class EngineStats:
    """Cumulative counters for one shard engine."""

    writes: int = 0
    deletes: int = 0
    refreshes: int = 0
    merges: int = 0
    flushes: int = 0
    docs_fetched: int = 0  # raw documents materialized for queries
    indexing_cost: float = 0.0  # abstract CPU units spent building indexes
    merge_cost: float = 0.0


class ShardEngine:
    """The storage engine behind one primary shard."""

    def __init__(
        self,
        config: EngineConfig,
        shard_id: int = 0,
        merge_policy: MergePolicy | None = None,
        analyzer: StandardAnalyzer | None = None,
        telemetry=None,
    ) -> None:
        self.config = config
        self.shard_id = shard_id
        #: Serializes every mutation (index/update/delete/refresh/flush/
        #: merge/recovery) so user threads sharing one instance can write
        #: concurrently. Reentrant because refresh → maybe_merge and
        #: index → auto-refresh nest. Readers stay lock-free: they only
        #: traverse the segment list, which is swapped atomically.
        self._mutex = threading.RLock()
        self.translog = Translog()
        self.merge_policy = merge_policy or TieredMergePolicy()
        self._analyzer = analyzer or StandardAnalyzer()
        self._spec = config.spec()
        self.buffer = InMemoryBuffer(self._spec, self._analyzer)
        self.segments: list[Segment] = []
        self._doc_locations: dict[object, int] = {}  # doc_id -> row_id
        self._dynamic_composites: dict[str, CompositeIndex] = {}
        self.stats = EngineStats()
        #: Read generation: bumps whenever the *searchable* result set can
        #: change — a refresh that seals a segment, or a delete that lands
        #: in a sealed segment. Buffered writes don't bump it (they are not
        #: searchable until refresh), and merges don't either (they preserve
        #: live documents exactly). Request/result caches key on it.
        self.generation = 0
        self._refresh_listeners: list[Callable[[Segment], None]] = []
        self._merge_listeners: list[Callable[[Segment, list[Segment]], None]] = []
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        metrics = self.telemetry.metrics
        self.filter_cache = (
            SegmentFilterCache(config.filter_cache_bytes, metrics=metrics)
            if config.filter_cache_bytes
            else None
        )
        shard = str(shard_id)
        self._write_counter = metrics.counter("engine_writes_total", shard=shard)
        self._delete_counter = metrics.counter("engine_deletes_total", shard=shard)
        self._refresh_counter = metrics.counter("engine_refreshes_total", shard=shard)
        self._merge_counter = metrics.counter("engine_merges_total", shard=shard)
        self._flush_counter = metrics.counter("engine_flushes_total", shard=shard)
        self._fetch_counter = metrics.counter("engine_docs_fetched_total", shard=shard)

    # -- listeners (replication hooks) ---------------------------------------
    def on_refresh(self, callback: Callable[[Segment], None]) -> None:
        """Register a callback fired with each newly refreshed segment."""
        self._refresh_listeners.append(callback)

    def on_merge(self, callback: Callable[[Segment, list[Segment]], None]) -> None:
        """Register a callback fired with (merged_segment, replaced_segments)."""
        self._merge_listeners.append(callback)

    # -- write path ----------------------------------------------------------
    def index(self, source: Mapping[str, Any], subattr_names: list | None = None) -> int:
        """Insert one document; returns its row id. Validate → log → apply:
        a malformed *source* raises :class:`InvalidDocumentError` before the
        translog or any index structure is touched. *subattr_names*, when
        given, receives the document's sub-attribute names (a by-product of
        indexing, for the facade's frequency tracker)."""
        doc = Document.from_source(source, self.config.schema)
        with self._mutex:
            return self._log_and_apply(doc, subattr_names)

    def bulk_index(self, sources: list, subattr_names: list | None = None) -> list[int]:
        """Insert a batch of documents under one lock acquisition; returns
        their row ids in batch order. Semantically identical to calling
        :meth:`index` per document (same translog entries, same auto-refresh
        points) except that the whole batch is validated first: one
        malformed source rejects the batch with nothing logged."""
        docs = [Document.from_source(source, self.config.schema) for source in sources]
        with self._mutex:
            return [self._log_and_apply(doc, subattr_names) for doc in docs]

    def _log_and_apply(self, doc: Document, subattr_names: list | None) -> int:
        self.translog.append("index", doc.doc_id, doc.source)
        row_id = self._apply_index(doc, subattr_names)
        self._maybe_auto_refresh()
        return row_id

    def update(self, doc_id: object, changes: Mapping[str, Any]) -> int:
        """Update a document by id (delete-then-reinsert, the Lucene model)."""
        with self._mutex:
            row_id = self._doc_locations.get(doc_id)
            if row_id is None:
                raise DocumentNotFoundError(
                    f"doc {doc_id!r} not in shard {self.shard_id}"
                )
            existing = self._get_by_row(row_id)
            merged_source = dict(existing.source)
            merged_source.update(changes)
            self.config.schema.validate(merged_source)
            self.translog.append("update", doc_id, merged_source)
            self._apply_delete(doc_id)
            new_row = self._apply_index(Document(doc_id=doc_id, source=merged_source))
            self._maybe_auto_refresh()
            return new_row

    def delete(self, doc_id: object) -> None:
        """Delete a document by id."""
        with self._mutex:
            if doc_id not in self._doc_locations:
                raise DocumentNotFoundError(
                    f"doc {doc_id!r} not in shard {self.shard_id}"
                )
            self.translog.append("delete", doc_id, None)
            self._apply_delete(doc_id)

    def _apply_index(self, doc: Document, subattr_names: list | None = None) -> int:
        if doc.doc_id in self._doc_locations:
            # Same-id insert acts as replace (ESDB rows are keyed by row ID).
            self._apply_delete(doc.doc_id)
        self.buffer.set_next_base(self._next_row_id())
        row_id, entries, names = self.buffer.add(doc)
        self._doc_locations[doc.doc_id] = row_id
        for dynamic in self._dynamic_composites.values():
            dynamic.add([doc.get(column) for column in dynamic.columns], row_id)
        self.stats.writes += 1
        self._write_counter.inc()
        self.stats.indexing_cost += entries
        if subattr_names is not None:
            subattr_names.append(names)
        return row_id

    def _apply_delete(self, doc_id: object) -> None:
        row_id = self._doc_locations.pop(doc_id, None)
        if row_id is None:
            return
        if not self.buffer.delete(row_id):
            for segment in self.segments:
                if segment.mark_deleted(row_id):
                    # The sealed segment's live bitmap changed: cached
                    # posting lists for it are stale, and so is any result
                    # keyed to the old read generation.
                    self.generation += 1
                    if self.filter_cache is not None:
                        self.filter_cache.invalidate_segment(segment.segment_id)
                    break
        self.stats.deletes += 1
        self._delete_counter.inc()

    def _next_row_id(self) -> int:
        if self.buffer.live_segment() is not None:
            live = self.buffer.live_segment()
            return live.base_row_id + len(live)
        if self.segments:
            last = max(self.segments, key=lambda s: s.base_row_id + len(s))
            return last.base_row_id + len(last)
        return 0

    def _maybe_auto_refresh(self) -> None:
        limit = self.config.auto_refresh_every
        if limit is not None and len(self.buffer) >= limit:
            self.refresh()

    # -- lifecycle --------------------------------------------------------------
    def refresh(self) -> Segment | None:
        """Seal buffered documents into a searchable segment (§3.3)."""
        with self._mutex:
            with self.telemetry.tracer.span("engine.refresh", shard=self.shard_id):
                segment = self.buffer.refresh()
                if segment is None:
                    return None
                self.segments = self.segments + [segment]
                self.generation += 1
                self.stats.refreshes += 1
                self._refresh_counter.inc()
                for listener in self._refresh_listeners:
                    listener(segment)
                self.maybe_merge()
                return segment

    def flush(self) -> None:
        """Make refreshed segments the durability floor: checkpoint and
        rotate the translog."""
        with self._mutex:
            self.refresh()
            self.translog.mark_flushed(self.translog.last_sequence())
            self.translog.truncate_before_flush()
            self.stats.flushes += 1
            self._flush_counter.inc()

    def maybe_merge(self) -> Segment | None:
        """Run one round of the merge policy; returns the merged segment."""
        with self._mutex:
            victims = self.merge_policy.select(self.segments)
            if not victims:
                return None
            with self.telemetry.tracer.span(
                "engine.merge", shard=self.shard_id, segments=len(victims)
            ):
                merged = merge_segments(victims, self._spec)
                victim_ids = {s.segment_id for s in victims}
                if self.filter_cache is not None:
                    for victim_id in victim_ids:
                        self.filter_cache.invalidate_segment(victim_id)
                # Swap in one assignment: a lock-free reader iterating the
                # list sees either the old list (victims still present) or
                # the new one (merged present) — never the gap between a
                # remove and an append where live documents would vanish.
                self.segments = [
                    s for s in self.segments if s.segment_id not in victim_ids
                ] + [merged]
                self.stats.merges += 1
                self._merge_counter.inc()
                self.stats.merge_cost += sum(s.live_count for s in victims)
                for listener in self._merge_listeners:
                    listener(merged, victims)
                return merged

    def recover_from_translog(self) -> int:
        """Rebuild unflushed state by replaying the translog (crash recovery).

        Returns the number of operations replayed. Callers simulate a crash
        by discarding buffer contents first (see tests).
        """
        replayed = 0
        with self._mutex:
            for entry in self.translog.recover():
                if entry.op in ("index", "update"):
                    doc = Document(doc_id=entry.doc_id, source=dict(entry.source or {}))
                    self._apply_index(doc)
                elif entry.op == "delete":
                    self._apply_delete(entry.doc_id)
                else:
                    raise StorageError(f"unknown translog op {entry.op!r}")
                replayed += 1
        return replayed

    def simulate_crash(self) -> None:
        """Drop all in-memory (unrefreshed) state, keeping segments+translog."""
        self.buffer = InMemoryBuffer(self._spec, self._analyzer)
        self.buffer.set_next_base(self._next_row_id())
        # Forget locations that pointed into the lost buffer.
        max_committed = self._next_row_id()
        self._doc_locations = {
            doc_id: row
            for doc_id, row in self._doc_locations.items()
            if row < max_committed
        }

    # -- read path -----------------------------------------------------------------
    def _searchable_segments(self) -> list[Segment]:
        return self.segments

    def doc_count(self) -> int:
        """Searchable (refreshed, live) documents."""
        return sum(s.live_count for s in self._searchable_segments())

    def total_docs_including_buffer(self) -> int:
        live = self.buffer.live_segment()
        buffered = live.live_count if live is not None else 0
        return self.doc_count() + buffered

    def _cached_postings(self, key: tuple, per_segment) -> PostingList:
        """Union per-segment posting lists, serving each segment's list from
        the filter cache when present. Segments are immutable, so a cached
        list stays valid until a delete dirties the segment (invalidated in
        :meth:`_apply_delete`) or a merge retires it (:meth:`maybe_merge`)."""
        cache = self.filter_cache
        if cache is None:
            return PostingList.union_all(
                [per_segment(s) for s in self._searchable_segments()]
            )
        lists = []
        for segment in self._searchable_segments():
            postings = cache.get(segment.segment_id, key)
            if postings is None:
                postings = per_segment(segment)
                cache.put(segment.segment_id, key, postings)
            lists.append(postings)
        return PostingList.union_all(lists)

    def term_postings(self, field_name: str, term: object) -> PostingList:
        return self._cached_postings(
            filter_key("term", field_name, term),
            lambda s: s.term_postings(field_name, term),
        )

    def text_postings(self, field_name: str, text: str) -> PostingList:
        return self._cached_postings(
            filter_key("text", field_name, text),
            lambda s: s.text_postings(field_name, text),
        )

    def numeric_range(self, field_name: str, low, high, **bounds) -> PostingList:
        key = filter_key(
            "range",
            field_name,
            low,
            high,
            bounds.get("include_low", True),
            bounds.get("include_high", True),
        )
        return self._cached_postings(
            key, lambda s: s.numeric_range(field_name, low, high, **bounds)
        )

    def subattribute_postings(self, key: str, value: str) -> PostingList:
        return self._cached_postings(
            filter_key("subattr", key, value),
            lambda s: s.subattribute_postings(key, value),
        )

    def has_subattribute_index(self, key: str) -> bool:
        allowed = self.config.indexed_subattributes
        return allowed is None or key in allowed

    def composite_search(self, index_name: str, equalities: dict, **kwargs) -> PostingList:
        lists = []
        for segment in self._searchable_segments():
            composite = segment.composite(index_name)
            if composite is not None:
                lists.append(segment.filter_live(composite.search(equalities, **kwargs)))
        dynamic = self._dynamic_composites.get(index_name)
        if dynamic is not None:
            lists.append(self._filter_searchable(dynamic.search(equalities, **kwargs)))
        return PostingList.union_all(lists)

    def _live_blocks(self, rows: PostingList) -> Iterator[tuple[Segment, PostingList]]:
        """Cut *rows* into one block per searchable segment: the rows inside
        the segment's row range that are live in it. Two bisections and a
        liveness pass per segment, never a membership test per row per
        segment. Row ranges may overlap — a merge of non-adjacent segments
        pads the gaps with tombstones — so a row is attributed to the one
        segment it is live in, not to the first range that contains it."""
        for segment in self._searchable_segments():
            base = segment.base_row_id
            block = segment.filter_live(rows.between(base, base + len(segment)))
            if block:
                yield segment, block

    def _filter_searchable(self, rows: PostingList) -> PostingList:
        """Keep only rows that are live in a *refreshed* segment (dynamic
        composite indexes may hold stale/buffered entries)."""
        return PostingList.union_all([block for _, block in self._live_blocks(rows)])

    # -- dynamic index management (the "Add/Drop Index" box of Figure 3) ----
    def add_composite_index(self, columns) -> str:
        """Build a composite index over *columns* covering all current and
        future documents of this shard; returns the index name.

        Existing (immutable) segments are backfilled into a shard-level
        index; future documents are added at write time. Stale entries left
        by deletes are filtered at query time against segment live-bitmaps,
        mirroring how Lucene queries ignore deleted doc ids.
        """
        index = CompositeIndex(tuple(columns))
        static_names = {
            "_".join(static) for static in self.config.composite_columns
        }
        if index.name in self._dynamic_composites or index.name in static_names:
            raise StorageError(f"index {index.name!r} already exists")
        for row_id, doc in self.iter_documents():
            index.add([doc.get(column) for column in index.columns], row_id)
        live = self.buffer.live_segment()
        if live is not None:
            for row_id, doc in live.iter_live():
                index.add([doc.get(column) for column in index.columns], row_id)
        index.seal()
        self._dynamic_composites[index.name] = index
        return index.name

    def drop_composite_index(self, name: str) -> None:
        """Drop a dynamically added composite index."""
        if name not in self._dynamic_composites:
            raise StorageError(f"no dynamic index named {name!r}")
        del self._dynamic_composites[name]

    def list_composite_indexes(self) -> list[str]:
        """All composite indexes usable on this shard (static + dynamic)."""
        names = {c.name for c in (CompositeIndex(cols) for cols in self.config.composite_columns)}
        names.update(self._dynamic_composites)
        return sorted(names)

    def scan_filter(self, field_name: str, rows: PostingList,
                    predicate: Callable[[Any], bool]) -> PostingList:
        """Sequential-scan filter over doc values, segment by segment."""
        lists = []
        for segment, block in self._live_blocks(rows):
            values = segment.doc_values(field_name)
            if values is not None:
                lists.append(values.scan(block, predicate))
        return PostingList.union_all(lists)

    def full_scan(self, field_name: str, predicate: Callable[[Any], bool]) -> PostingList:
        lists = []
        for segment in self._searchable_segments():
            values = segment.doc_values(field_name)
            if values is not None:
                lists.append(segment.filter_live(values.full_scan(predicate)))
        return PostingList.union_all(lists)

    def multi_full_scan(
        self, field_name: str, predicates: list[Callable[[Any], bool]]
    ) -> list[PostingList]:
        """Shared scan: evaluate every predicate over *field_name* with one
        doc-values pass per segment, returning one posting list per
        predicate — each identical to what :meth:`full_scan` would return
        for that predicate alone."""
        per_predicate: list[list[PostingList]] = [[] for _ in predicates]
        for segment in self._searchable_segments():
            values = segment.doc_values(field_name)
            if values is None:
                continue
            for i, scanned in enumerate(values.multi_full_scan(predicates)):
                per_predicate[i].append(segment.filter_live(scanned))
        return [PostingList.union_all(lists) for lists in per_predicate]

    def fetch(self, rows: PostingList) -> list[Document]:
        """Fetch raw documents for a posting list (the coordinator's second
        phase: row-id collection then raw-data fetch, §3.2)."""
        self.stats.docs_fetched += len(rows)
        self._fetch_counter.inc(len(rows))
        return [self._get_by_row(row) for row in rows]

    def field_value(self, field_name: str, row_id: int):
        """Read one column value for *row_id* from doc values (None when the
        row or column is absent) — used for sort-key extraction without
        materializing the whole document."""
        for segment, _ in self._live_blocks(PostingList.of(row_id)):
            values = segment.doc_values(field_name)
            return values.get(row_id) if values is not None else None
        return None

    def top_k(self, rows: PostingList, order_column: str, k: int,
              *, descending: bool = False) -> PostingList:
        """Per-shard top-k pushdown: reduce *rows* to the *k* best by
        *order_column* using doc values only, so the coordinator fetches at
        most ``k`` raw documents per shard instead of every match (§2.2
        notes sort/top-k are what make distributed queries expensive)."""
        if k >= len(rows):
            return rows
        column: dict[int, Any] = {}
        for segment, block in self._live_blocks(rows):
            values = segment.doc_values(order_column)
            if values is not None:
                column.update((row, values.get(row)) for row in block)
        keyed = []
        for row in rows:
            value = column.get(row)
            keyed.append(((True, value) if value is not None else (False, 0), row))
        try:
            keyed.sort(key=lambda pair: pair[0], reverse=descending)
        except TypeError:
            return rows  # mixed-type column: fall back, coordinator decides
        return PostingList([row for _, row in keyed[:k]])

    def _get_by_row(self, row_id: int) -> Document:
        live = self.buffer.live_segment()
        if live is not None:
            doc = live.get_document(row_id)
            if doc is not None:
                return doc
        for segment in self._searchable_segments():
            doc = segment.get_document(row_id)
            if doc is not None:
                return doc
        raise DocumentNotFoundError(f"row {row_id} not found in shard {self.shard_id}")

    def get(self, doc_id: object) -> Document:
        """Point lookup by document id (reads its own writes via locations)."""
        row_id = self._doc_locations.get(doc_id)
        if row_id is None:
            raise DocumentNotFoundError(f"doc {doc_id!r} not in shard {self.shard_id}")
        return self._get_by_row(row_id)

    def contains(self, doc_id: object) -> bool:
        return doc_id in self._doc_locations

    def iter_documents(self) -> Iterator[tuple[int, Document]]:
        for segment in self._searchable_segments():
            yield from segment.iter_live()

    def acquire_searcher(self):
        """Return a point-in-time :class:`~repro.storage.searcher.Searcher`
        pinned to the current segment list (near-real-time semantics: the
        buffer's unrefreshed documents are not visible through it)."""
        from repro.storage.searcher import Searcher

        return Searcher(list(self.segments), generation=self.stats.refreshes)

    # -- accounting -------------------------------------------------------------
    def index_memory(self) -> int:
        return sum(s.index_memory() for s in self._searchable_segments())

    def segment_count(self) -> int:
        return len(self.segments)

"""In-memory buffer and refresh (near-real-time search, §3.3).

Writes land in the buffer first and are invisible to search until a
*refresh* seals the buffer's contents into a new immutable segment. The
buffer therefore owns the visibility boundary the paper's replication and
write-path sections reason about.
"""

from __future__ import annotations

from repro.storage.document import Document
from repro.storage.segment import Segment, SegmentSpec


class InMemoryBuffer:
    """Accumulates documents between refreshes.

    The buffer builds a real (unsealed) :class:`Segment` incrementally so
    refresh is just "seal and hand over" — matching Lucene, where flushing a
    buffer writes the already-built in-memory index to disk.
    """

    def __init__(self, spec: SegmentSpec) -> None:
        self._spec = spec
        self._segment: Segment | None = None
        self._next_base = 0

    def __len__(self) -> int:
        return len(self._segment) if self._segment is not None else 0

    @property
    def empty(self) -> bool:
        return len(self) == 0

    def set_next_base(self, base_row_id: int) -> None:
        """Align row-id assignment with the shard's committed segments."""
        self._next_base = base_row_id

    def add(self, doc: Document) -> tuple[int, int, tuple[str, ...]]:
        """Buffer one document; returns :meth:`Segment.add_document`'s
        ``(row_id, entries, subattr_names)`` for its future row."""
        if self._segment is None:
            self._segment = Segment(self._spec, self._next_base)
        return self._segment.add_document(doc)

    def delete(self, row_id: int) -> bool:
        """Delete a not-yet-refreshed row (e.g. superseded by an update)."""
        if self._segment is None:
            return False
        return self._segment.mark_deleted(row_id)

    def refresh(self) -> Segment | None:
        """Seal the buffered documents into a segment; None when empty.

        After refresh the buffer starts a new segment whose row ids continue
        where the sealed one ended.
        """
        if self._segment is None or len(self._segment) == 0:
            return None
        segment = self._segment
        segment.seal()
        self._next_base = segment.base_row_id + len(segment)
        self._segment = None
        return segment

    def live_segment(self) -> Segment | None:
        """Expose the unsealed segment (the engine searches it too when
        configured for real-time rather than near-real-time reads)."""
        return self._segment

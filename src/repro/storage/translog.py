"""Translog: the write-ahead log (§3.3).

Every write is appended to the translog on submission, before it becomes
searchable, so data not yet flushed to segments survives a crash. Entries
carry a checksum; recovery replays entries after the last flush point and
stops at the first corrupted record (torn tail), raising on mid-log
corruption.
"""

from __future__ import annotations

import marshal
import zlib
from typing import Any, Iterator, Mapping, NamedTuple

from repro.errors import TranslogCorruptionError


class TranslogEntry(NamedTuple):
    """One durable operation record, as a reader sees it: the log keeps its
    fields in columns and builds the entry when one is read.

    Attributes:
        sequence: monotonically increasing per-shard sequence number.
        op: "index" | "update" | "delete".
        doc_id: record id the operation targets.
        source: full document source for index/update, None for delete.
        checksum: CRC over the serialized payload.
    """

    sequence: int
    op: str
    doc_id: object
    source: Mapping[str, Any] | None
    checksum: int

    def verify(self) -> bool:
        return self.checksum == _checksum(self.sequence, self.op, self.doc_id, self.source)


def _checksum(sequence: int, op: str, doc_id: object, source: Mapping[str, Any] | None) -> int:
    """CRC of one ``marshal`` encoding of the entry, the source's items
    sorted by key so the checksum does not depend on key order. Keys that
    cannot be ordered (an int next to a str) sort by ``repr``; a value
    ``marshal`` rejects (any object but a builtin value) falls back to a
    ``repr`` payload, so every source a schema accepts can be logged.
    Version 2 of the format writes neither back-references nor interning
    flags, so equal payloads encode alike whatever their refcounts."""
    items = None
    if source:
        try:
            items = sorted(source.items())
        except TypeError:
            items = sorted(source.items(), key=lambda item: repr(item[0]))
    try:
        return zlib.crc32(marshal.dumps((sequence, op, repr(doc_id), items), 2))
    except ValueError:
        return zlib.crc32(f"{sequence}|{op}|{doc_id!r}|{items!r}".encode("utf-8"))


class Translog:
    """Append-only operation log with checkpointing.

    ``flush_sequence`` marks the last operation known to be durable in
    segment files; recovery replays everything after it. ``truncate_before``
    drops entries covered by a flush (log rotation).

    The log is four parallel columns — op, doc id, source, checksum — and
    the sequences they hold are consecutive, ending at the last one
    appended: an append adds no container of its own. Indexing the log or
    iterating it yields :class:`TranslogEntry` views.
    """

    def __init__(self) -> None:
        self._ops: list[str] = []
        self._doc_ids: list[object] = []
        self._sources: list[Mapping[str, Any] | None] = []
        self._checksums: list[int] = []
        self._next_sequence = 0
        self.flush_sequence = -1

    def __len__(self) -> int:
        return len(self._ops)

    def __getitem__(self, position: int) -> TranslogEntry:
        """The entry at *position* among those held (negative counts from
        the newest)."""
        position = range(len(self._ops))[position]
        return TranslogEntry(
            self._next_sequence - len(self._ops) + position,
            self._ops[position],
            self._doc_ids[position],
            self._sources[position],
            self._checksums[position],
        )

    def __iter__(self) -> Iterator[TranslogEntry]:
        return self._entries_from(0)

    def _entries_from(self, position: int) -> Iterator[TranslogEntry]:
        return map(
            TranslogEntry,
            range(self._next_sequence - len(self._ops) + position, self._next_sequence),
            self._ops[position:],
            self._doc_ids[position:],
            self._sources[position:],
            self._checksums[position:],
        )

    def _first_unflushed(self) -> int:
        """The position of the first entry after the flush point."""
        first = self._next_sequence - len(self._ops)
        return min(max(0, self.flush_sequence + 1 - first), len(self._ops))

    def append(self, op: str, doc_id: object, source: Mapping[str, Any] | None = None) -> TranslogEntry:
        """Append one operation; returns the durable entry."""
        sequence = self._next_sequence
        checksum = _checksum(sequence, op, doc_id, source)
        self._ops.append(op)
        self._doc_ids.append(doc_id)
        self._sources.append(source)
        self._checksums.append(checksum)
        self._next_sequence = sequence + 1
        return TranslogEntry(sequence, op, doc_id, source, checksum)

    def mark_flushed(self, sequence: int) -> None:
        """Record that all operations up to *sequence* are durable in segments."""
        self.flush_sequence = max(self.flush_sequence, sequence)

    def truncate_before_flush(self) -> int:
        """Drop entries already covered by the last flush; returns count dropped."""
        dropped = self._first_unflushed()
        for column in (self._ops, self._doc_ids, self._sources, self._checksums):
            del column[:dropped]
        return dropped

    def last_sequence(self) -> int:
        return self._next_sequence - 1

    def recover(self) -> Iterator[TranslogEntry]:
        """Yield entries after the flush point, verifying checksums.

        A corrupted *final* entry is treated as a torn write and recovery
        stops cleanly before it; corruption anywhere else raises.
        """
        last = self._next_sequence - 1
        for entry in self._entries_from(self._first_unflushed()):
            if not entry.verify():
                if entry.sequence == last:
                    return  # torn tail: ignore the partial record
                raise TranslogCorruptionError(
                    f"checksum mismatch at sequence {entry.sequence}"
                )
            yield entry

    def corrupt_entry(self, sequence: int) -> None:
        """Test hook: flip the stored checksum of one entry."""
        position = sequence - (self._next_sequence - len(self._ops))
        if not 0 <= position < len(self._ops):
            raise TranslogCorruptionError(f"no entry with sequence {sequence}")
        self._checksums[position] ^= 0xFF

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
from dataclasses import dataclass
from typing import Any, Iterator, Mapping

from repro.errors import TranslogCorruptionError


@dataclass(frozen=True)
class TranslogEntry:
    """One durable operation record.

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

    @staticmethod
    def make(sequence: int, op: str, doc_id: object, source: Mapping[str, Any] | None) -> "TranslogEntry":
        return TranslogEntry(sequence, op, doc_id, source, _checksum(sequence, op, doc_id, source))

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
    """

    def __init__(self) -> None:
        self._entries: list[TranslogEntry] = []
        self._next_sequence = 0
        self.flush_sequence = -1

    def __len__(self) -> int:
        return len(self._entries)

    def append(self, op: str, doc_id: object, source: Mapping[str, Any] | None = None) -> TranslogEntry:
        """Append one operation; returns the durable entry."""
        entry = TranslogEntry.make(self._next_sequence, op, doc_id, source)
        self._entries.append(entry)
        self._next_sequence += 1
        return entry

    def mark_flushed(self, sequence: int) -> None:
        """Record that all operations up to *sequence* are durable in segments."""
        self.flush_sequence = max(self.flush_sequence, sequence)

    def truncate_before_flush(self) -> int:
        """Drop entries already covered by the last flush; returns count dropped."""
        keep = [e for e in self._entries if e.sequence > self.flush_sequence]
        dropped = len(self._entries) - len(keep)
        self._entries = keep
        return dropped

    def last_sequence(self) -> int:
        return self._next_sequence - 1

    def recover(self) -> Iterator[TranslogEntry]:
        """Yield entries after the flush point, verifying checksums.

        A corrupted *final* entry is treated as a torn write and recovery
        stops cleanly before it; corruption anywhere else raises.
        """
        pending = [e for e in self._entries if e.sequence > self.flush_sequence]
        for i, entry in enumerate(pending):
            if not entry.verify():
                if i == len(pending) - 1:
                    return  # torn tail: ignore the partial record
                raise TranslogCorruptionError(
                    f"checksum mismatch at sequence {entry.sequence}"
                )
            yield entry

    def corrupt_entry(self, sequence: int) -> None:
        """Test hook: flip the stored checksum of one entry."""
        for i, entry in enumerate(self._entries):
            if entry.sequence == sequence:
                self._entries[i] = TranslogEntry(
                    entry.sequence, entry.op, entry.doc_id, entry.source, entry.checksum ^ 0xFF
                )
                return
        raise TranslogCorruptionError(f"no entry with sequence {sequence}")

"""Columnar doc values enabling sequential scan (§5.1).

Elasticsearch stores per-field column values ("doc values") for sorting and
aggregation; ESDB reuses them to implement the sequential-scan access path:
given a posting list from a composite-index search, scan the doc values of a
low-cardinality column (e.g. ``status``) to filter the posting list without
touching another index.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.storage.postings import PostingList


class DocValues:
    """Column store: row id → value for one field.

    Rows are appended with monotonically increasing ids within a segment, so
    a plain list indexed by (row_id - base) is both compact and O(1).
    """

    def __init__(self, base_row_id: int = 0) -> None:
        self._base = base_row_id
        self._values: list[Any] = []

    def __len__(self) -> int:
        return len(self._values)

    def append(self, row_id: int, value: Any) -> None:
        """Store *value* for *row_id*; gaps are padded with None (sparse
        columns — a row may lack any given sub-attribute)."""
        values = self._values
        index = row_id - self._base
        if index > len(values):
            values += [None] * (index - len(values))
        if index == len(values):
            values.append(value)
        else:
            values[index] = value

    @classmethod
    def merged(
        cls,
        base_row_id: int,
        parts: list[tuple[DocValues, int, int, frozenset]],
        interleaved: bool,
    ) -> DocValues | None:
        """One column from *base_row_id* over *parts*: each a column with the
        first and last row it contributes and the rows in between to blank
        (deleted ones). The column ends at its last value, as one built by
        :meth:`append` does; None when no part contributes a value. Parts
        that are not *interleaved* cover disjoint row spans and are copied
        span by span; interleaved ones are copied value by value."""
        pieces = []
        for column, first, last, dropped in parts:
            values = column._values[first - column._base : last + 1 - column._base]
            for row in dropped:
                if first <= row < first + len(values):
                    values[row - first] = None
            while values and values[-1] is None:
                values.pop()
            if values:
                pieces.append((first - base_row_id, values))
        if not pieces:
            return None
        out: list[Any] = [None] * max(start + len(values) for start, values in pieces)
        for start, values in pieces:
            if interleaved:
                for offset, value in enumerate(values, start):
                    if value is not None:
                        out[offset] = value
            else:
                out[start : start + len(values)] = values
        merged = cls(base_row_id)
        merged._values = out
        return merged

    def get(self, row_id: int, default: Any = None) -> Any:
        index = row_id - self._base
        if 0 <= index < len(self._values):
            value = self._values[index]
            return default if value is None else value
        return default

    def scan(self, rows: PostingList, predicate: Callable[[Any], bool]) -> PostingList:
        """Filter *rows* by *predicate* over this column — the sequential-scan
        operator of the ESDB query plan (Figure 8, posting list B)."""
        values, base = self._values, self._base
        # ``get``'s bounds check, once for the block instead of once per row.
        covered = rows.between(base, base + len(values))
        out = [row for row in covered if predicate(values[row - base])]
        if len(covered) < len(rows) and predicate(None):
            # A sparse column stops short of the segment: those rows read None.
            out = sorted(set(rows).difference(covered).union(out))
        return PostingList(out, presorted=True)

    def full_scan(self, predicate: Callable[[Any], bool]) -> PostingList:
        """Scan the entire column (table-scan fallback; deliberately the most
        expensive path so plan comparisons stay meaningful)."""
        out = [
            self._base + i
            for i, value in enumerate(self._values)
            if predicate(value)
        ]
        return PostingList(out, presorted=True)

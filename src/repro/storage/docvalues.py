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
        index = row_id - self._base
        while len(self._values) < index:
            self._values.append(None)
        if index == len(self._values):
            self._values.append(value)
        else:
            self._values[index] = value

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

    def multi_full_scan(
        self, predicates: "list[Callable[[Any], bool]]"
    ) -> "list[PostingList]":
        """Evaluate many predicates in one pass over the column — the
        shared-scan operator (SharedDB): N same-column filters cost one
        column traversal instead of N."""
        outs: list[list[int]] = [[] for _ in predicates]
        base = self._base
        for i, value in enumerate(self._values):
            row = base + i
            for j, predicate in enumerate(predicates):
                if predicate(value):
                    outs[j].append(row)
        return [PostingList(out, presorted=True) for out in outs]

    def distinct_count(self) -> int:
        """Cardinality estimate used to decide scan-list membership."""
        return len({v for v in self._values if v is not None})

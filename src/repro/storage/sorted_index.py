"""Sorted numeric index — the role Bkd-trees play in Elasticsearch.

Lucene indexes numeric and multi-dimensional data with Bkd-trees; for the
one-dimensional case the structure behaves as a disk-friendly sorted index
supporting point and range lookups. This module implements exactly that: a
block-structured sorted array of ``(value, row_id)`` pairs with a block
directory, giving O(log B + hits) range queries while keeping the code honest
about the block I/O pattern the real structure optimizes.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Iterable

from repro.errors import StorageError
from repro.storage.postings import PostingList

DEFAULT_BLOCK_SIZE = 256


class SortedIndex:
    """Block-structured sorted index over one numeric column.

    Values are buffered unsorted during segment construction and sealed into
    sorted blocks on :meth:`seal` (mirroring how Lucene writes points at
    flush time). Lookups before sealing seal implicitly. The buffer is two
    parallel columns, values and rows: an entry adds a float and an int to
    lists the index owns, and nothing the cyclic collector tracks.
    """

    def __init__(self, block_size: int = DEFAULT_BLOCK_SIZE) -> None:
        if block_size < 2:
            raise StorageError("block_size must be >= 2")
        self._block_size = block_size
        self._pending_values: list[float] = []
        self._pending_rows: list[int] = []
        self._values: list[float] = []
        self._rows: list[int] = []
        self._block_mins: list[float] = []

    def __len__(self) -> int:
        return len(self._pending_rows) + len(self._values)

    def add(self, value: float, row_id: int) -> None:
        """Buffer one ``(value, row_id)`` entry."""
        if value is None:
            raise StorageError("cannot index None; use doc values for sparse columns")
        self.add_pair(float(value), row_id)

    def add_pair(self, value: float, row_id: int) -> None:
        """Buffer a ``(value, row_id)`` entry whose value is already a float:
        a segment converts each numeric value once and keeps the float."""
        self._pending_values.append(value)
        self._pending_rows.append(row_id)

    def add_all(self, pairs: Iterable[tuple[float, int]]) -> None:
        for value, row_id in pairs:
            self.add(value, row_id)

    def seal(self) -> None:
        """Sort the buffered entries into the block structure."""
        if not self._pending_rows:
            return
        merged = list(zip(self._pending_values, self._pending_rows))
        if self._values:
            merged += zip(self._values, self._rows)
        merged.sort()
        self._load(merged)

    def _load(self, pairs: list[tuple[float, int]]) -> None:
        """Seal onto sorted *pairs*, replacing whatever the index held."""
        self._values = [v for v, _ in pairs]
        self._rows = [r for _, r in pairs]
        self._pending_values, self._pending_rows = [], []
        self._block_mins = [
            self._values[i] for i in range(0, len(self._values), self._block_size)
        ]

    @classmethod
    def merged(cls, parts: list[tuple[SortedIndex, frozenset]]) -> SortedIndex:
        """One sealed index over *parts* — sealed indexes, each with the rows
        to drop from it."""
        merged = cls()
        merged._load(merge_runs([(ix._values, ix._rows, dropped) for ix, dropped in parts]))
        return merged

    # -- queries ---------------------------------------------------------------
    def range(self, low: float | None, high: float | None, *,
              include_low: bool = True, include_high: bool = True) -> PostingList:
        """Return rows with ``low <= value <= high`` (bounds optional)."""
        self.seal()
        if not self._values:
            return PostingList.empty()
        lo_idx = 0
        if low is not None:
            lo_idx = (bisect_left if include_low else bisect_right)(self._values, float(low))
        hi_idx = len(self._values)
        if high is not None:
            hi_idx = (bisect_right if include_high else bisect_left)(self._values, float(high))
        if lo_idx >= hi_idx:
            return PostingList.empty()
        # One entry per row, so no duplicates to drop: order by row id only.
        return PostingList(sorted(self._rows[lo_idx:hi_idx]), presorted=True)

    def point(self, value: float) -> PostingList:
        """Return rows whose value equals *value* exactly."""
        return self.range(value, value)

    def min_value(self) -> float | None:
        self.seal()
        return self._values[0] if self._values else None

    def max_value(self) -> float | None:
        self.seal()
        return self._values[-1] if self._values else None

def merge_runs(runs: list[tuple[list, list[int], frozenset]]) -> list[tuple]:
    """The ``(key, row)`` pairs of sorted runs — each ``(keys, rows,
    dropped)`` — minus the dropped rows, in one sorted list. Row ids are
    distinct across runs, so no two pairs tie; the sort finds the runs
    already sorted and only merges them."""
    pairs: list[tuple] = []
    for keys, rows, dropped in runs:
        run = zip(keys, rows)
        pairs += [pair for pair in run if pair[1] not in dropped] if dropped else run
    pairs.sort()
    return pairs

"""Composite indexes over concatenated columns (§5.1).

ESDB builds concatenated columns and one-dimensional Bkd-trees over them as
composite indexes. This module reproduces that design: keys are tuples of
column values concatenated in declaration order, stored sorted with
common-prefix compression in leaf blocks (the paper's storage/key-comparison
optimization). Searches must comply with the leftmost principle — equality on
a prefix of the columns, optionally a range on the next column.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Any, Iterable, Sequence

from repro.errors import PlanningError, StorageError
from repro.storage.postings import PostingList

def _encode(value: Any) -> tuple:
    """Encode one column value into a homogeneous, totally ordered key part.

    Mixed types (ints and strings in the same column) must not raise during
    key comparison, so each part is tagged with a type rank. A key is its
    parts concatenated — ``(rank1, value1, rank2, value2, ...)`` — which
    orders exactly as a tuple of the parts would (a value is only compared
    after equal ranks) while holding nothing but numbers and strings, so the
    cyclic collector stops tracking a key the first time it sees it.
    """
    if isinstance(value, bool):
        return (0, int(value))
    if isinstance(value, (int, float)):
        return (0, float(value))
    if isinstance(value, str):
        return (1, value)
    return (2, repr(value))


class CompositeIndex:
    """A sorted index over the concatenation of several columns.

    Attributes:
        columns: the indexed columns, leftmost first.
    """

    def __init__(self, columns: Sequence[str], block_size: int = 128) -> None:
        if not columns:
            raise StorageError("composite index needs at least one column")
        if len(set(columns)) != len(columns):
            raise StorageError(f"duplicate columns in composite index: {columns}")
        if block_size < 2:
            raise StorageError("block_size must be >= 2")
        self.columns = tuple(columns)
        self._block_size = block_size
        self._pending: list[tuple[tuple, int]] = []
        self._keys: list[tuple] = []
        self._rows: list[int] = []
        self._sealed = False

    @property
    def name(self) -> str:
        return "_".join(self.columns)

    def __len__(self) -> int:
        return len(self._pending) + len(self._keys)

    # -- construction ------------------------------------------------------
    def add(self, values: Sequence[Any], row_id: int) -> None:
        """Index one row. *values* follow the declared column order; a None
        anywhere means the row lacks a column and is skipped (the row is then
        only findable via single-column indexes or scans)."""
        if len(values) != len(self.columns):
            raise StorageError(
                f"expected {len(self.columns)} values for {self.name}, got {len(values)}"
            )
        if any(v is None for v in values):
            return
        key: tuple = ()
        for value in values:
            key += _encode(value)
        self._pending.append((key, row_id))
        self._sealed = False

    def seal(self) -> None:
        if self._sealed:
            return
        merged = self._pending
        if self._keys:
            merged += zip(self._keys, self._rows)
        merged.sort()
        self._keys = [k for k, _ in merged]
        self._rows = [r for _, r in merged]
        self._pending = []
        self._sealed = True

    # -- planner support -----------------------------------------------------
    def match_length(self, equality_columns: Iterable[str]) -> int:
        """Return how many leading index columns are covered by equality
        predicates — the "longest match" metric the RBO ranks on."""
        available = set(equality_columns)
        length = 0
        for column in self.columns:
            if column in available:
                length += 1
            else:
                break
        return length

    # -- search ----------------------------------------------------------------
    def search(
        self,
        equalities: dict[str, Any],
        range_column: str | None = None,
        low: Any = None,
        high: Any = None,
        *,
        include_low: bool = True,
        include_high: bool = True,
    ) -> PostingList:
        """Search with equality on a leftmost prefix plus an optional range on
        the next column.

        Raises :class:`PlanningError` when the request violates the leftmost
        principle (the optimizer should never let that happen; the check
        protects direct users of the engine API).
        """
        self.seal()
        prefix: tuple = ()
        consumed = 0
        for column in self.columns:
            if column in equalities:
                prefix += _encode(equalities[column])
                consumed += 1
            else:
                break
        if consumed != len(equalities):
            extra = set(equalities) - set(self.columns[:consumed])
            raise PlanningError(
                f"equality columns {sorted(extra)} violate leftmost principle of {self.name}"
            )
        if range_column is not None:
            if consumed >= len(self.columns) or self.columns[consumed] != range_column:
                raise PlanningError(
                    f"range column {range_column!r} must be column {consumed} of {self.name}"
                )

        low_key = prefix + (
            _encode(low) if (range_column is not None and low is not None) else ()
        )
        high_key = prefix + (
            _encode(high) if (range_column is not None and high is not None) else ()
        )
        # Prefix scans: pad with a sentinel so that any longer key sorts inside.
        lo_idx = self._lower_bound(low_key, inclusive=include_low,
                                   is_range=range_column is not None and low is not None)
        hi_idx = self._upper_bound(high_key, inclusive=include_high,
                                   is_range=range_column is not None and high is not None)
        if lo_idx >= hi_idx:
            return PostingList.empty()
        # One entry per row, so no duplicates to drop: order by row id only.
        return PostingList(sorted(self._rows[lo_idx:hi_idx]), presorted=True)

    def _lower_bound(self, key: tuple, *, inclusive: bool, is_range: bool) -> int:
        if not key:
            return 0
        if is_range and not inclusive:
            # strictly greater on the range part: skip every key whose range
            # component equals the bound.
            return bisect_right(self._keys, key + _MAX_KEYPAD)
        return bisect_left(self._keys, key)

    def _upper_bound(self, key: tuple, *, inclusive: bool, is_range: bool) -> int:
        if not key:
            return len(self._keys)
        if is_range and not inclusive:
            return bisect_left(self._keys, key)
        return bisect_right(self._keys, key + _MAX_KEYPAD)

    # -- storage accounting -----------------------------------------------------
    def stored_bytes(self, *, prefix_compressed: bool = True) -> int:
        """Approximate key storage in bytes, with or without common-prefix
        compression — quantifies the §5.1 optimization."""
        self.seal()
        total = 0
        previous: tuple | None = None
        for key in self._keys:
            flat = "\x00".join(map(str, key[1::2]))
            if prefix_compressed and previous is not None:
                prev_flat = "\x00".join(map(str, previous[1::2]))
                common = _common_prefix_len(flat, prev_flat)
                total += len(flat) - common + 2  # 2 bytes to encode prefix len
            else:
                total += len(flat)
            previous = key
        return total


# A type rank that sorts after every real one (3 is unused by _encode):
# appended to a prefix it bounds every longer key that starts with it.
_MAX_KEYPAD = (3,)


def _common_prefix_len(a: str, b: str) -> int:
    n = min(len(a), len(b))
    i = 0
    while i < n and a[i] == b[i]:
        i += 1
    return i

"""Composite indexes over concatenated columns (§5.1).

ESDB builds concatenated columns and one-dimensional Bkd-trees over them as
composite indexes. This module reproduces that design: keys are tuples of
column values concatenated in declaration order and stored sorted (the
paper also compresses common key prefixes in leaf blocks; keys here are
kept whole). Searches must comply with the leftmost principle — equality on
a prefix of the columns, optionally a range on the next column.

A row that lacks a column is keyed by the columns before it: an equality
prefix it holds finds it, and a search naming the column it lacks never does.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Any, Mapping, Sequence

from repro.errors import PlanningError, StorageError
from repro.storage.postings import PostingList
from repro.storage.sorted_index import merge_runs

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
        #: Rows added since the last seal, as two parallel columns.
        self._pending_keys: list[tuple] = []
        self._pending_rows: list[int] = []
        self._keys: list[tuple] = []
        self._rows: list[int] = []

    @property
    def name(self) -> str:
        return "_".join(self.columns)

    def __len__(self) -> int:
        return len(self._pending_rows) + len(self._keys)

    # -- construction ------------------------------------------------------
    def add(self, values: Sequence[Any], row_id: int) -> None:
        """Index one row. *values* follow the declared column order; None
        means the row lacks that column. The row is keyed by the leading
        columns it holds, up to the first it lacks; a row lacking the first
        column is skipped (only single-column indexes or scans find it)."""
        if len(values) != len(self.columns):
            raise StorageError(
                f"expected {len(self.columns)} values for {self.name}, got {len(values)}"
            )
        key: tuple = ()
        for value in values:
            if value is None:
                break
            key += _encode(value)
        if not key:
            return
        self._pending_keys.append(key)
        self._pending_rows.append(row_id)

    def seal(self) -> None:
        if not self._pending_rows:
            return
        merged = list(zip(self._pending_keys, self._pending_rows))
        if self._keys:
            merged += zip(self._keys, self._rows)
        merged.sort()
        self._load(merged)

    def _load(self, pairs: list[tuple[tuple, int]]) -> None:
        """Seal onto sorted *pairs*, replacing whatever the index held."""
        self._keys = [k for k, _ in pairs]
        self._rows = [r for _, r in pairs]
        self._pending_keys, self._pending_rows = [], []

    @classmethod
    def merged(
        cls, columns: Sequence[str], parts: list[tuple[CompositeIndex, frozenset]]
    ) -> CompositeIndex:
        """One sealed index on *columns* over *parts* — sealed indexes on the
        same columns, each with the rows to drop from it."""
        merged = cls(columns)
        merged._load(merge_runs([(ix._keys, ix._rows, dropped) for ix, dropped in parts]))
        return merged

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
        return self.search_bounds(self.bounds(
            equalities, range_column, low, high,
            include_low=include_low, include_high=include_high,
        ))

    def bounds(self, equalities: dict[str, Any], range_column: str | None = None,
               low: Any = None, high: Any = None, *,
               include_low: bool = True, include_high: bool = True) -> tuple:
        """:meth:`search`'s request as key bounds (:func:`key_bounds`)."""
        return key_bounds(
            leftmost(self.columns, equalities, range_column), range_column is not None,
            low, high, include_low, include_high,
        )

    def search_bounds(self, bounds: tuple) -> PostingList:
        """The rows whose keys lie within *bounds* (:func:`key_bounds`): two
        bisections, whatever the bounds were encoded from."""
        self.seal()
        low_key, low_after, high_key, high_after = bounds
        keys = self._keys
        lo_idx = (bisect_right if low_after else bisect_left)(keys, low_key)
        hi_idx = (bisect_right if high_after else bisect_left)(keys, high_key)
        if lo_idx >= hi_idx:
            return PostingList.empty()
        # One entry per row, so no duplicates to drop: order by row id only.
        return PostingList(sorted(self._rows[lo_idx:hi_idx]), presorted=True)

# A type rank that sorts after every real one (3 is unused by _encode):
# appended to a prefix it bounds every longer key that starts with it.
_MAX_KEYPAD = (3,)


def leftmost(columns: Sequence[str], equalities: Mapping[str, Any],
             range_column: str | None = None) -> list:
    """The values of *equalities* in the order of the index *columns*,
    checked against the leftmost principle: they name a prefix of the
    columns, and *range_column*, if any, is the column after it."""
    values = []
    for column in columns:
        if column not in equalities:
            break
        values.append(equalities[column])
    name = "_".join(columns)
    if len(values) != len(equalities):
        extra = set(equalities) - set(columns[:len(values)])
        raise PlanningError(
            f"equality columns {sorted(extra)} violate leftmost principle of {name}"
        )
    if range_column is not None and columns[len(values):len(values) + 1] != (range_column,):
        raise PlanningError(
            f"range column {range_column!r} must be column {len(values)} of {name}"
        )
    return values


def key_bounds(prefix: Sequence[Any], ranged: bool, low: Any, high: Any,
               include_low: bool, include_high: bool) -> tuple:
    """The keys a search for the equality *prefix* values (leftmost first)
    and, when *ranged*, a range on the next column spans, as ``(low_key,
    low_after, high_key, high_after)``: the rows lie from the insertion
    point of ``low_key`` to that of ``high_key``, after equal keys where
    ``*_after``. An open bound is None. Encoded once, the bounds serve every
    segment and shard a statement searches."""
    key: tuple = ()
    for value in prefix:
        key += _encode(value)
    if not ranged:
        return key, False, key + _MAX_KEYPAD, True
    if low is None:
        # A key equal to the bare prefix is a row lacking the range
        # column: an open low bound starts after it, not at it.
        lower = key, True
    elif include_low:
        lower = key + _encode(low), False
    else:
        lower = key + _encode(low) + _MAX_KEYPAD, True
    if high is None:
        upper = key + _MAX_KEYPAD, True
    elif include_high:
        upper = key + _encode(high) + _MAX_KEYPAD, True
    else:
        upper = key + _encode(high), False
    return lower + upper

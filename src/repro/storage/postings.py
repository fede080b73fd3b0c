"""Posting lists and the set algebra the query executor runs on them.

A posting list is a sorted array of integer row ids (Lucene doc ids within a
segment, global row ids at the shard level). The executor aggregates posting
lists through intersections and unions exactly as Figure 7/8 of the paper
depict; keeping them sorted makes those merges linear.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterable, Iterator

from repro.errors import StorageError


class PostingList:
    """A sorted, duplicate-free list of row ids supporting merge algebra."""

    __slots__ = ("_ids",)

    def __init__(self, ids: Iterable[int] = (), *, presorted: bool = False) -> None:
        if presorted:
            self._ids = list(ids)
        else:
            self._ids = sorted(set(ids))

    # -- construction -----------------------------------------------------
    @staticmethod
    def empty() -> "PostingList":
        return PostingList((), presorted=True)

    @staticmethod
    def of(*ids: int) -> "PostingList":
        return PostingList(ids)

    # -- container protocol --------------------------------------------------
    def __len__(self) -> int:
        return len(self._ids)

    def __iter__(self) -> Iterator[int]:
        return iter(self._ids)

    def __bool__(self) -> bool:
        return bool(self._ids)

    def __contains__(self, row_id: int) -> bool:
        i = bisect_left(self._ids, row_id)
        return i < len(self._ids) and self._ids[i] == row_id

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PostingList):
            return NotImplemented
        return self._ids == other._ids

    def __hash__(self) -> int:
        return hash(tuple(self._ids))

    def __repr__(self) -> str:
        preview = ", ".join(map(str, self._ids[:8]))
        suffix = ", ..." if len(self._ids) > 8 else ""
        return f"PostingList([{preview}{suffix}], n={len(self._ids)})"

    def to_list(self) -> list[int]:
        return list(self._ids)

    # -- algebra ----------------------------------------------------------------
    def intersect(self, other: "PostingList") -> "PostingList":
        """Intersection; galloping when sizes are lopsided, one hashed pass
        over the long list otherwise."""
        a, b = self._ids, other._ids
        if len(a) > len(b):
            a, b = b, a
        if not a:
            return PostingList.empty()
        # Galloping: probe each element of the short list into the long one.
        if len(b) > 8 * len(a):
            out = [x for x in a if _sorted_contains(b, x)]
            return PostingList(out, presorted=True)
        return PostingList(sorted(set(a).intersection(b)), presorted=True)

    def union(self, other: "PostingList") -> "PostingList":
        """Union. Lists over disjoint row ranges — one per segment, the common
        case — are concatenated as blocks; only overlapping lists are merged."""
        a, b = self._ids, other._ids
        if not a:
            return other
        if not b:
            return self
        if a[-1] < b[0]:
            return PostingList(a + b, presorted=True)
        if b[-1] < a[0]:
            return PostingList(b + a, presorted=True)
        return PostingList(sorted(set(a).union(b)), presorted=True)

    def difference(self, other: "PostingList") -> "PostingList":
        out = [x for x in self._ids if x not in other]
        return PostingList(out, presorted=True)

    def between(self, low: int, high: int) -> "PostingList":
        """The ids in ``[low, high)`` — two bisections and one slice; how the
        engine cuts a shard-level list into one segment's block of rows."""
        ids = self._ids
        lo = bisect_left(ids, low)
        hi = bisect_left(ids, high, lo)
        if lo == 0 and hi == len(ids):
            return self
        return PostingList(ids[lo:hi], presorted=True)

    def shifted(self, base: int) -> "PostingList":
        """Return a copy with *base* added to every id — used to map
        segment-local doc ids to shard-global row ids."""
        if base < 0:
            raise StorageError("posting shift must be non-negative")
        return PostingList([x + base for x in self._ids], presorted=True)

    @staticmethod
    def intersect_all(lists: list["PostingList"]) -> "PostingList":
        """Intersect many lists, smallest first (standard Lucene ordering)."""
        if not lists:
            return PostingList.empty()
        ordered = sorted(lists, key=len)
        result = ordered[0]
        for other in ordered[1:]:
            if not result:
                break
            result = result.intersect(other)
        return result

    @staticmethod
    def union_all(lists: list["PostingList"]) -> "PostingList":
        result = PostingList.empty()
        for other in lists:
            result = result.union(other)
        return result


def _sorted_contains(ids: list[int], x: int) -> bool:
    i = bisect_left(ids, x)
    return i < len(ids) and ids[i] == x

"""Segment merging (§3.3).

Merging folds small segments into larger ones: it costs CPU but keeps query
fan-in bounded. The tiered policy here follows Lucene's spirit — merge when
enough similarly-sized segments accumulate — simplified to a size-tier rule
that is easy to reason about in tests. Merged segments matter to the paper
because physical replication treats them specially (pre-replication, §5.2).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from itertools import pairwise
from operator import attrgetter

from repro.errors import StorageError
from repro.storage.segment import Segment, SegmentSpec

# The most live documents one merge may produce.
MAX_MERGED_DOCS = 1_000_000


class MergePolicy(ABC):
    """Chooses which segments to merge after each refresh."""

    @abstractmethod
    def select(self, segments: list[Segment]) -> list[Segment]:
        """Return the segments to merge now (empty list = no merge)."""


@dataclass
class TieredMergePolicy(MergePolicy):
    """Merge when *merge_factor* segments of the same size tier accumulate.

    Size tiers are powers of *tier_base* in document count; a merge combines
    the oldest *merge_factor* live segments in the fullest eligible tier.
    """

    merge_factor: int = 4
    tier_base: int = 10

    def __post_init__(self) -> None:
        if self.merge_factor < 2:
            raise StorageError("merge_factor must be >= 2")

    def _tier(self, segment: Segment) -> int:
        count = max(segment.live_count, 1)
        tier = 0
        while count >= self.tier_base:
            count //= self.tier_base
            tier += 1
        return tier

    def select(self, segments: list[Segment]) -> list[Segment]:
        tiers: dict[int, list[Segment]] = {}
        for segment in segments:
            if segment.live_count == 0:
                continue
            tiers.setdefault(self._tier(segment), []).append(segment)
        for tier in sorted(tiers):
            group = tiers[tier]
            if len(group) >= self.merge_factor:
                candidates = group[: self.merge_factor]
                if sum(s.live_count for s in candidates) <= MAX_MERGED_DOCS:
                    return candidates
        return []


def merge_segments(segments: list[Segment], spec: SegmentSpec) -> Segment:
    """Merge *segments* into one new sealed segment.

    Deleted documents are dropped (merge is when deletes are reclaimed).
    Shard-global row ids are preserved, so the merged segment spans its
    inputs' whole row range — a row a shard handed out stays its own — and a
    row it holds no live document for is a tombstone. This function orders
    the inputs by their first live row and notes whether their live rows
    interleave (a merge of non-adjacent segments pads over the rows of the
    segments between them, which a later merge may take in); each index
    structure then merges its own kind (:meth:`Segment.merged`).
    """
    if not segments:
        raise StorageError("nothing to merge")
    runs = sorted(
        filter(None, (segment.live_run() for segment in segments)),
        key=attrgetter("first"),
    )
    interleaved = any(a.last >= b.first for a, b in pairwise(runs))
    rows = range(
        min(s.base_row_id for s in segments),
        max(s.base_row_id + len(s) for s in segments),
    )
    generation = max(s.generation for s in segments) + 1
    return Segment.merged(spec, rows, generation, runs, interleaved)

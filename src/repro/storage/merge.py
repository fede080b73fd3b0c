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

from repro.errors import StorageError
from repro.storage.document import Document
from repro.storage.segment import Segment, SegmentSpec

# Padding placeholder for row-id gaps left by reclaimed deletes: an empty
# doc, tombstoned immediately, which never matches any query.
_TOMBSTONE = Document(doc_id="__tombstone__", source={})


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
    max_merged_docs: int = 1_000_000

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
                if sum(s.live_count for s in candidates) <= self.max_merged_docs:
                    return candidates
        return []


def merge_segments(segments: list[Segment], spec: SegmentSpec) -> Segment:
    """Merge *segments* into one new sealed segment.

    Deleted documents are dropped (merge is when deletes are reclaimed).
    Shard-global row ids are preserved — gaps left by reclaimed deletes are
    padded with tombstones — so posting lists and doc values stay valid
    without the renumbering bookkeeping real Lucene needs.
    """
    if not segments:
        raise StorageError("nothing to merge")
    base = min(s.base_row_id for s in segments)
    generation = max(s.generation for s in segments) + 1
    merged = Segment(spec, base, generation=generation)
    rows: list[tuple[int, Document]] = []
    for segment in segments:
        rows.extend(segment.iter_live())
    rows.sort(key=lambda pair: pair[0])
    for row_id, doc in rows:
        while merged.base_row_id + len(merged) < row_id:
            pad_row, _, _ = merged.add_document(_TOMBSTONE)
            merged.mark_deleted(pad_row)
        merged.add_document(doc)
    merged.seal()
    return merged

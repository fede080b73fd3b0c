"""Level 1: the per-shard segment filter cache.

Caches one posting list per ``(segment_id, normalized filter)`` — the unit
Elasticsearch's node query cache uses. Segments are immutable, so an entry
stays valid for the segment's whole life with two exceptions the engine
invalidates eagerly:

* a delete marks a row dead inside the segment (posting lists are
  live-filtered at build time, so they would go stale);
* a merge replaces the segment entirely (its ``segment_id`` dies with it).

A shard stores a filter's per-segment lists from the filter's second
sighting on: a :class:`~repro.cache.lru.Doorkeeper` of the last
:data:`SEEN_FILTERS` filters the engine asked :meth:`SegmentFilterCache.admit`
about, once per lookup. Lookups probe either way. Eviction is LRU by
posting-list byte cost, so one huge match-everything filter cannot pin the
budget.
"""

from __future__ import annotations

from repro.cache.lru import Doorkeeper, LruCache, posting_cost
from repro.telemetry.runtime import NULL_REGISTRY

#: Most filters a shard's doorkeeper remembers; the oldest goes.
SEEN_FILTERS = 4096


class SegmentFilterCache:
    """Posting lists keyed by ``(segment_id, filter_key)``."""

    def __init__(self, max_bytes: int, *, metrics=NULL_REGISTRY) -> None:
        self._lru = LruCache(
            max_bytes, level="filter", metrics=metrics, on_evict=self._forget
        )
        self._by_segment: dict[int, set] = {}
        self._doorkeeper = Doorkeeper(SEEN_FILTERS)

    @property
    def stats(self):
        return self._lru.stats

    def __len__(self) -> int:
        return len(self._lru)

    def admit(self, filter_key: tuple) -> bool:
        """Whether a lookup of *filter_key* stores the lists it computes:
        True when the filter was asked about before."""
        return self._doorkeeper.admit(filter_key)

    def get(self, segment_id: int, filter_key: tuple):
        return self._lru.get((segment_id, filter_key))

    def put(self, segment_id: int, filter_key: tuple, postings) -> bool:
        key = (segment_id, filter_key)
        if not self._lru.put(key, postings, cost=posting_cost(postings)):
            return False
        self._by_segment.setdefault(segment_id, set()).add(key)
        return True

    def invalidate_segment(self, segment_id: int) -> int:
        """Drop every entry of one segment (delete hit it, or it merged
        away); returns how many entries were dropped."""
        keys = self._by_segment.pop(segment_id, None)
        if not keys:
            return 0
        dropped = 0
        for key in keys:
            if self._lru.pop(key) is not None:
                dropped += 1
        return dropped

    def clear(self) -> None:
        self._lru.clear()
        self._by_segment.clear()

    def _forget(self, key, _value) -> None:
        """LRU-eviction callback: keep the per-segment key index tight."""
        segment_id = key[0]
        keys = self._by_segment.get(segment_id)
        if keys is not None:
            keys.discard(key)
            if not keys:
                del self._by_segment[segment_id]

"""repro.cache — multi-level query caching with rule-list-aware invalidation.

Three cooperating levels, mirroring how Elasticsearch absorbs repeated
query templates (the §6 workload: 1000 near-identical queries per tenant):

1. :class:`SegmentFilterCache` — per-shard posting lists keyed by
   ``(segment_id, normalized filter)``. Segments are immutable, so entries
   live until a delete dirties the segment or a merge retires it.
2. :class:`ShardRequestCache` — full per-shard subquery results keyed by
   statement fingerprint + engine read generation; invalidated through the
   engine's ``on_refresh``/``on_merge`` hooks.
3. :class:`CoordinatorResultCache` — whole fan-out results in the ESDB
   facade keyed by ``(sql fingerprint, rule-list version)``; the rule
   list's monotone version counter makes any routing change invalidate
   every dependent entry atomically, and per-shard generation validators
   preserve read-your-writes as data refreshes.

All levels evict LRU within a byte budget and report hit/miss/eviction
counters plus a byte gauge into :mod:`repro.telemetry` under a ``level``
label (``filter`` / ``request`` / ``result``).
"""

from repro.cache.config import CacheConfig
from repro.cache.filter_cache import SegmentFilterCache
from repro.cache.fingerprint import (
    filter_key,
    normalize_sql,
    sql_fingerprint,
    statement_fingerprint,
)
from repro.cache.lru import CacheStats, LruCache, estimate_bytes, posting_cost, rows_cost
from repro.cache.request_cache import ShardRequestCache
from repro.cache.result_cache import CoordinatorResultCache

__all__ = [
    "CacheConfig",
    "CacheStats",
    "LruCache",
    "SegmentFilterCache",
    "ShardRequestCache",
    "CoordinatorResultCache",
    "estimate_bytes",
    "posting_cost",
    "rows_cost",
    "filter_key",
    "normalize_sql",
    "sql_fingerprint",
    "statement_fingerprint",
]

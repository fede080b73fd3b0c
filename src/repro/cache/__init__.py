"""repro.cache — multi-level query caching with rule-list-aware invalidation.

Three cooperating levels, mirroring how Elasticsearch absorbs repeated
query templates (the §6 workload: 1000 near-identical queries per tenant):

1. :class:`SegmentFilterCache` — per-shard posting lists keyed by
   ``(segment_id, normalized filter)``. Segments are immutable, so entries
   live until a delete dirties the segment or a merge retires it.
2. :class:`ShardRequestCache` — full per-shard subquery results keyed by
   statement identity + engine read generation; invalidated through the
   engine's ``on_refresh``/``on_merge`` hooks.
3. :class:`CoordinatorResultCache` — whole fan-out results in the query
   coordinator keyed by ``(statement identity, rule-list version)``; the rule
   list's monotone version counter makes any routing change invalidate
   every dependent entry atomically, and per-shard generation validators
   preserve read-your-writes as data refreshes. A hit is one LRU probe.

A statement's identity is the ``sql:`` fingerprint of its text, which the
query coordinator memoizes per text (:func:`sql_fingerprint`), so a repeat digests
nothing.

Admission follows TinyLFU's doorkeeper (:class:`Doorkeeper`): a key seen
once never displaces anything. The coordinator asks the request level's
doorkeeper once per fan-out, and a statement's first sighting probes no
shard (unless its identity still holds live entries), stores no subquery,
and stores its result only into free budget. A shard stores a filter's
postings from the filter's second sighting on, through its own doorkeeper.

All levels evict LRU within a byte budget, each entry priced by its caller
(``rows_cost`` / ``posting_cost``), and report hit/miss/eviction
counters plus a byte gauge into :mod:`repro.telemetry` under a ``level``
label (``filter`` / ``request`` / ``result``). ``EsdbConfig.cache``
switches all three on (the default) or off together; their budgets are the
constants below.
"""

from repro.cache.filter_cache import SegmentFilterCache
from repro.cache.fingerprint import (
    filter_key,
    normalize_sql,
    sql_fingerprint,
    statement_fingerprint,
)
from repro.cache.lru import (
    CacheStats,
    Doorkeeper,
    LruCache,
    estimate_bytes,
    posting_cost,
    rows_cost,
    rows_cost_floor,
)
from repro.cache.request_cache import ShardRequestCache
from repro.cache.result_cache import CoordinatorResultCache

#: Segment filter cache budget, per shard (like Lucene's per-segment cache).
FILTER_CACHE_BYTES = 4 << 20
#: Shard request cache budget, shared by every shard of an instance.
REQUEST_CACHE_BYTES = 8 << 20
#: Coordinator result cache budget.
RESULT_CACHE_BYTES = 8 << 20

__all__ = [
    "FILTER_CACHE_BYTES",
    "REQUEST_CACHE_BYTES",
    "RESULT_CACHE_BYTES",
    "CacheStats",
    "Doorkeeper",
    "LruCache",
    "SegmentFilterCache",
    "ShardRequestCache",
    "CoordinatorResultCache",
    "estimate_bytes",
    "posting_cost",
    "rows_cost",
    "rows_cost_floor",
    "filter_key",
    "normalize_sql",
    "sql_fingerprint",
    "statement_fingerprint",
]

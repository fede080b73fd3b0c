"""Byte-budgeted LRU cache core shared by all three cache levels.

One :class:`LruCache` holds opaque values under hashable keys, each with an
explicit byte cost; inserting past the budget evicts from the
least-recently-used end. The cache keeps local :class:`CacheStats` (always
available, even with telemetry disabled) and mirrors them into a
:class:`~repro.telemetry.metrics.MetricsRegistry` (the no-op
``NULL_REGISTRY`` unless one is passed):
``cache_hits_total`` / ``cache_misses_total`` / ``cache_evictions_total``
counters and a ``cache_bytes`` gauge, all labeled with the cache's
``level`` so every shard's filter cache aggregates into one series.

A :class:`Doorkeeper` is the admission filter in front of a cache: it
remembers the keys it was asked about, so a cache can store a key from its
second sighting on (TinyLFU's doorkeeper, Einziger et al., TOS 2017).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from itertools import islice
from typing import Any, Callable

from repro.errors import ConfigurationError
from repro.telemetry.runtime import NULL_REGISTRY


@dataclass
class CacheStats:
    """Local counters for one cache instance."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    insertions: int = 0
    invalidations: int = 0
    bytes: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        lookups = self.lookups
        return self.hits / lookups if lookups else 0.0


#: Containers larger than this are size-sampled, not fully walked: insertion
#: cost must stay far below the query cost the cache saves (result rows are
#: lists of hundreds of near-identical dicts).
_SAMPLE = 8


def estimate_bytes(value: Any, _depth: int = 0) -> int:
    """Rough, deterministic in-memory size of a cached value.

    Containers are walked to a bounded depth; large ones are estimated from
    their first ``_SAMPLE`` elements scaled to the full length. Unknown
    objects fall back to the length of their ``repr``. The estimate only
    has to be *consistent* (budgets are relative), not exact.
    """
    if value is None or isinstance(value, bool):
        return 16
    if isinstance(value, (int, float)):
        return 28
    if isinstance(value, str):
        return 49 + len(value)
    if isinstance(value, bytes):
        return 33 + len(value)
    if _depth >= 6:  # deep nests: charge a flat fee instead of recursing
        return 64
    if isinstance(value, dict):
        sampled = sum(
            estimate_bytes(k, _depth + 1) + estimate_bytes(v, _depth + 1)
            for k, v in islice(value.items(), _SAMPLE)
        )
        return 64 + _scaled(sampled, len(value))
    if isinstance(value, (list, tuple, set, frozenset)):
        sampled = sum(
            estimate_bytes(item, _depth + 1) for item in islice(value, _SAMPLE)
        )
        return 56 + 8 * len(value) + _scaled(sampled, len(value))
    sized = getattr(value, "cache_bytes", None)
    if sized is not None:
        return int(sized() if callable(sized) else sized)
    return 48 + len(repr(value))


def _scaled(sampled: int, length: int) -> int:
    """Extrapolate a ``_SAMPLE``-element cost to *length* elements."""
    if length <= _SAMPLE:
        return sampled
    return sampled * length // _SAMPLE


def rows_cost(rows) -> int:
    """Byte cost of a list of result rows, priced from the row count and the
    first row alone: rows of one result are near-identical dicts, and
    admission has to stay far below the query cost a hit saves, so it does
    not grow with the result."""
    if not rows:
        return 56
    return 56 + len(rows) * (8 + estimate_bytes(rows[0]))


def rows_cost_floor(rows) -> int:
    """A lower bound of :func:`rows_cost` from the row count alone, for a
    refusal that need not price the rows: :func:`estimate_bytes` charges a
    value at least 16 bytes, and a list 8 per slot."""
    return 56 + 24 * len(rows)


def posting_cost(postings) -> int:
    """Byte cost of a posting list: header + 8 bytes per row id."""
    return 64 + 8 * len(postings)


class LruCache:
    """A byte-budgeted LRU map with telemetry-wired statistics."""

    def __init__(
        self,
        max_bytes: int,
        *,
        level: str = "cache",
        metrics=NULL_REGISTRY,
        on_evict: Callable[[Any, Any], None] | None = None,
    ) -> None:
        if max_bytes <= 0:
            raise ConfigurationError(f"cache budget must be positive, got {max_bytes}")
        self.max_bytes = max_bytes
        self.level = level
        self.stats = CacheStats()
        # Even a read mutates an LRU (hits reorder the recency list), so
        # every entry-map access is serialized; user threads may share the
        # request cache. Uncontended acquire cost is noise next to the
        # query work a hit saves.
        self._mutex = threading.RLock()
        self._entries: OrderedDict[Any, tuple[Any, int]] = OrderedDict()
        self._on_evict = on_evict
        self._hit_counter = metrics.counter("cache_hits_total", level=level)
        self._miss_counter = metrics.counter("cache_misses_total", level=level)
        self._eviction_counter = metrics.counter("cache_evictions_total", level=level)
        self._bytes_gauge = metrics.gauge("cache_bytes", level=level)

    # -- core ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Any) -> bool:
        return key in self._entries

    def get(self, key: Any, valid: Callable[[Any, Any], bool] | None = None, against=None):
        """Return the cached value or None; a hit refreshes recency. One
        probe: a value for which ``valid(value, against)`` is false is
        dropped (an invalidation) and counts as a miss."""
        with self._mutex:
            entry = self._entries.get(key)
            if entry is not None:
                if valid is None or valid(entry[0], against):
                    self._entries.move_to_end(key)
                    self.stats.hits += 1
                    self._hit_counter.inc()
                    return entry[0]
                del self._entries[key]
                self._account(-entry[1])
                self.stats.invalidations += 1
            self.stats.misses += 1
            self._miss_counter.inc()
            return None

    def put(self, key: Any, value: Any, cost: int) -> bool:
        """Insert *value* under *key*, charged *cost* bytes; returns False
        when that alone exceeds the whole budget (not cached)."""
        if cost > self.max_bytes:
            return False
        with self._mutex:
            old = self._entries.pop(key, None)
            if old is not None:
                self._account(-old[1])
            self._entries[key] = (value, cost)
            self._account(cost)
            self.stats.insertions += 1
            while self.stats.bytes > self.max_bytes and self._entries:
                self._evict_one()
            return True

    def pop(self, key: Any):
        """Remove and return *key*'s value (None when absent); counts as an
        invalidation, not an eviction."""
        with self._mutex:
            entry = self._entries.pop(key, None)
            if entry is None:
                return None
            self._account(-entry[1])
            self.stats.invalidations += 1
            return entry[0]

    def clear(self) -> int:
        """Drop every entry; returns how many were dropped."""
        with self._mutex:
            dropped = len(self._entries)
            for key, (value, _) in list(self._entries.items()):
                if self._on_evict is not None:
                    self._on_evict(key, value)
            self._entries.clear()
            self._account(-self.stats.bytes)
            self.stats.invalidations += dropped
            return dropped

    def keys(self):
        with self._mutex:
            return list(self._entries.keys())

    # -- internals -------------------------------------------------------------
    def _evict_one(self) -> None:
        key, (value, cost) = self._entries.popitem(last=False)
        self._account(-cost)
        self.stats.evictions += 1
        self._eviction_counter.inc()
        if self._on_evict is not None:
            self._on_evict(key, value)

    def _account(self, delta: int) -> None:
        self.stats.bytes += delta
        self._bytes_gauge.add(delta)


class Doorkeeper:
    """The last *capacity* keys asked about, oldest forgotten first.

    :meth:`admit` answers whether a key was seen before: a key seen once
    never displaces a cached entry. A repeat keeps its place: the order
    is insertion order, not recency."""

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self._seen: OrderedDict[Any, None] = OrderedDict()
        self._mutex = threading.Lock()

    def admit(self, key: Any) -> bool:
        """True when *key* was asked about before; otherwise remember it
        (forgetting the oldest past :attr:`capacity`) and say no."""
        seen = self._seen
        with self._mutex:
            if key in seen:
                return True
            seen[key] = None
            if len(seen) > self.capacity:
                seen.popitem(last=False)
            return False
